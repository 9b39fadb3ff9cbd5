#include "storage/serializer.h"

#include <cstring>

namespace fuzzydb {

namespace {

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t pos = out->size();
  out->resize(pos + sizeof(v));
  std::memcpy(out->data() + pos, &v, sizeof(v));
}

void PutF64(std::vector<uint8_t>* out, double v) {
  const size_t pos = out->size();
  out->resize(pos + sizeof(v));
  std::memcpy(out->data() + pos, &v, sizeof(v));
}

class Reader {
 public:
  Reader(const uint8_t* data, size_t length) : data_(data), end_(length) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > end_) return false;
    *v = data_[pos_++];
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (pos_ + sizeof(*v) > end_) return false;
    std::memcpy(v, data_ + pos_, sizeof(*v));
    pos_ += sizeof(*v);
    return true;
  }
  bool ReadF64(double* v) {
    if (pos_ + sizeof(*v) > end_) return false;
    std::memcpy(v, data_ + pos_, sizeof(*v));
    pos_ += sizeof(*v);
    return true;
  }
  bool ReadBytes(size_t n, const uint8_t** out) {
    if (pos_ + n > end_) return false;
    *out = data_ + pos_;
    pos_ += n;
    return true;
  }

 private:
  const uint8_t* data_;
  size_t pos_ = 0;
  size_t end_;
};

}  // namespace

void SerializeTuple(const Tuple& tuple, std::vector<uint8_t>* out,
                    size_t min_size) {
  out->clear();
  PutU8(out, static_cast<uint8_t>(tuple.NumValues()));
  for (size_t i = 0; i < tuple.NumValues(); ++i) {
    const Value& v = tuple.ValueAt(i);
    PutU8(out, static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kString: {
        const std::string& s = v.AsString();
        PutU32(out, static_cast<uint32_t>(s.size()));
        out->insert(out->end(), s.begin(), s.end());
        break;
      }
      case ValueType::kFuzzy: {
        const Trapezoid& t = v.AsFuzzy();
        PutF64(out, t.a());
        PutF64(out, t.b());
        PutF64(out, t.c());
        PutF64(out, t.d());
        break;
      }
    }
  }
  PutF64(out, tuple.degree());
  // Padding block (always present, possibly empty).
  const size_t base = out->size() + sizeof(uint32_t);
  const size_t pad = base < min_size ? min_size - base : 0;
  PutU32(out, static_cast<uint32_t>(pad));
  out->resize(out->size() + pad, 0);
}

size_t SerializedTupleSize(const Tuple& tuple) {
  size_t size = 1;  // value count
  for (size_t i = 0; i < tuple.NumValues(); ++i) {
    const Value& v = tuple.ValueAt(i);
    size += 1;  // type tag
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kString:
        size += sizeof(uint32_t) + v.AsString().size();
        break;
      case ValueType::kFuzzy:
        size += 4 * sizeof(double);
        break;
    }
  }
  size += sizeof(double);    // degree
  size += sizeof(uint32_t);  // padding length
  return size;
}

Result<Tuple> DeserializeTuple(const uint8_t* data, size_t length) {
  Reader reader(data, length);
  uint8_t count;
  if (!reader.ReadU8(&count)) {
    return Status::Internal("truncated tuple record (value count)");
  }
  std::vector<Value> values;
  values.reserve(count);
  for (uint8_t i = 0; i < count; ++i) {
    uint8_t tag;
    if (!reader.ReadU8(&tag)) {
      return Status::Internal("truncated tuple record (type tag)");
    }
    switch (static_cast<ValueType>(tag)) {
      case ValueType::kNull:
        values.push_back(Value::Null());
        break;
      case ValueType::kString: {
        uint32_t len;
        const uint8_t* bytes;
        if (!reader.ReadU32(&len) || !reader.ReadBytes(len, &bytes)) {
          return Status::Internal("truncated tuple record (string)");
        }
        values.push_back(Value::String(
            std::string(reinterpret_cast<const char*>(bytes), len)));
        break;
      }
      case ValueType::kFuzzy: {
        double a, b, c, d;
        if (!reader.ReadF64(&a) || !reader.ReadF64(&b) || !reader.ReadF64(&c) ||
            !reader.ReadF64(&d)) {
          return Status::Internal("truncated tuple record (fuzzy)");
        }
        // The invariant the parser enforces on INSERT; a NaN corner
        // fails it too, infinite ordered corners pass.
        if (!(a <= b && b <= c && c <= d)) {
          return Status::Internal(
              "corrupt tuple record (fuzzy corners out of order)");
        }
        values.push_back(Value::Fuzzy(Trapezoid(a, b, c, d)));
        break;
      }
      default:
        return Status::Internal("bad value type tag in tuple record");
    }
  }
  double degree;
  if (!reader.ReadF64(&degree)) {
    return Status::Internal("truncated tuple record (degree)");
  }
  if (!(degree > 0.0 && degree <= 1.0)) {
    return Status::Internal("corrupt tuple record (degree outside (0, 1])");
  }
  return Tuple(std::move(values), degree);
}

}  // namespace fuzzydb
