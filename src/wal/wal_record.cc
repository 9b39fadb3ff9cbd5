#include "wal/wal_record.h"

#include <cstring>

#include "storage/serializer.h"

namespace fuzzydb {
namespace wal {

namespace {

constexpr uint32_t kMagic = 0x4C415746;  // "FWAL" little-endian
constexpr size_t kHeaderSize = 12;       // magic + length + crc
// Sanity bound on one record: a tuple fits a 4 KiB page, names are
// short; anything claiming more than this is a damaged length field.
constexpr uint32_t kMaxPayload = 1 << 20;

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t pos = out->size();
  out->resize(pos + sizeof(v));
  std::memcpy(out->data() + pos, &v, sizeof(v));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t pos = out->size();
  out->resize(pos + sizeof(v));
  std::memcpy(out->data() + pos, &v, sizeof(v));
}

void PutF64(std::vector<uint8_t>* out, double v) {
  const size_t pos = out->size();
  out->resize(pos + sizeof(v));
  std::memcpy(out->data() + pos, &v, sizeof(v));
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), end_(size) {}

  bool U8(uint8_t* v) {
    if (pos_ + 1 > end_) return false;
    *v = data_[pos_++];
    return true;
  }
  bool U32(uint32_t* v) { return Fixed(v); }
  bool U64(uint64_t* v) { return Fixed(v); }
  bool F64(double* v) { return Fixed(v); }
  bool String(std::string* s) {
    uint32_t n = 0;
    if (!U32(&n) || pos_ + n > end_) return false;
    s->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }
  bool Bytes(size_t n, const uint8_t** out) {
    if (pos_ + n > end_) return false;
    *out = data_ + pos_;
    pos_ += n;
    return true;
  }
  bool AtEnd() const { return pos_ == end_; }

 private:
  template <typename T>
  bool Fixed(T* v) {
    if (pos_ + sizeof(T) > end_) return false;
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  const uint8_t* data_;
  size_t pos_ = 0;
  size_t end_;
};

bool DecodeBody(Reader* in, WalRecord* record) {
  switch (record->type) {
    case WalRecordType::kCreateTable: {
      if (!in->String(&record->table)) return false;
      uint32_t ncols = 0;
      if (!in->U32(&ncols)) return false;
      Schema schema;
      for (uint32_t i = 0; i < ncols; ++i) {
        std::string name;
        uint8_t tag = 0;
        if (!in->String(&name) || !in->U8(&tag) || tag > 2) return false;
        if (!schema.AddColumn(Column{name, static_cast<ValueType>(tag)})
                 .ok()) {
          return false;
        }
      }
      record->schema = std::move(schema);
      return true;
    }
    case WalRecordType::kInsert: {
      if (!in->String(&record->table)) return false;
      uint32_t len = 0;
      const uint8_t* blob = nullptr;
      if (!in->U32(&len) || !in->Bytes(len, &blob)) return false;
      auto tuple = DeserializeTuple(blob, len);
      if (!tuple.ok()) return false;
      record->tuple = std::move(tuple).value();
      return true;
    }
    case WalRecordType::kDropTable:
      return in->String(&record->table);
    case WalRecordType::kDefineTerm: {
      double a = 0, b = 0, c = 0, d = 0;
      if (!in->String(&record->term) || !in->F64(&a) || !in->F64(&b) ||
          !in->F64(&c) || !in->F64(&d)) {
        return false;
      }
      record->shape = Trapezoid(a, b, c, d);
      return true;
    }
    case WalRecordType::kCheckpoint:
      return in->U64(&record->checkpoint_lsn);
  }
  return false;
}

}  // namespace

void EncodeWalRecord(const WalRecord& record, std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  PutU64(&payload, record.lsn);
  PutU8(&payload, static_cast<uint8_t>(record.type));
  switch (record.type) {
    case WalRecordType::kCreateTable: {
      PutString(&payload, record.table);
      PutU32(&payload, static_cast<uint32_t>(record.schema.NumColumns()));
      for (const Column& column : record.schema.columns()) {
        PutString(&payload, column.name);
        PutU8(&payload, static_cast<uint8_t>(column.type));
      }
      break;
    }
    case WalRecordType::kInsert: {
      PutString(&payload, record.table);
      std::vector<uint8_t> blob;
      SerializeTuple(record.tuple, &blob);
      PutU32(&payload, static_cast<uint32_t>(blob.size()));
      payload.insert(payload.end(), blob.begin(), blob.end());
      break;
    }
    case WalRecordType::kDropTable:
      PutString(&payload, record.table);
      break;
    case WalRecordType::kDefineTerm:
      PutString(&payload, record.term);
      PutF64(&payload, record.shape.a());
      PutF64(&payload, record.shape.b());
      PutF64(&payload, record.shape.c());
      PutF64(&payload, record.shape.d());
      break;
    case WalRecordType::kCheckpoint:
      PutU64(&payload, record.checkpoint_lsn);
      break;
  }
  PutU32(out, kMagic);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, WalCrc32(payload.data(), payload.size()));
  out->insert(out->end(), payload.begin(), payload.end());
}

WalDecodeOutcome DecodeWalRecord(const uint8_t* data, size_t size,
                                 WalRecord* record, size_t* consumed) {
  if (size == 0) return WalDecodeOutcome::kEnd;
  if (size < kHeaderSize) return WalDecodeOutcome::kCorrupt;
  uint32_t magic = 0, length = 0, crc = 0;
  std::memcpy(&magic, data, 4);
  std::memcpy(&length, data + 4, 4);
  std::memcpy(&crc, data + 8, 4);
  if (magic != kMagic || length > kMaxPayload ||
      size < kHeaderSize + length) {
    return WalDecodeOutcome::kCorrupt;
  }
  const uint8_t* payload = data + kHeaderSize;
  if (WalCrc32(payload, length) != crc) return WalDecodeOutcome::kCorrupt;
  Reader in(payload, length);
  uint8_t type = 0;
  if (!in.U64(&record->lsn) || !in.U8(&type) || type < 1 || type > 5) {
    return WalDecodeOutcome::kCorrupt;
  }
  record->type = static_cast<WalRecordType>(type);
  if (!DecodeBody(&in, record) || !in.AtEnd()) {
    return WalDecodeOutcome::kCorrupt;
  }
  *consumed = kHeaderSize + length;
  return WalDecodeOutcome::kRecord;
}

uint32_t WalCrc32(const uint8_t* data, size_t size) {
  // Table-driven reflected CRC-32 (IEEE 802.3 polynomial), the classic
  // zlib-compatible checksum; built once, thread-safe since C++11.
  static const uint32_t* kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace wal
}  // namespace fuzzydb
