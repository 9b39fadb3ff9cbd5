#include "engine/distinct_bindings.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <string>

#include "obs/op_scope.h"

namespace fuzzydb {

namespace {

inline uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// One multiply-xorshift round folding `word` into `h`: the multiply
/// carries low bits up, the shift brings high bits down to the slot
/// index.
inline uint64_t Fold(uint64_t h, uint64_t word) {
  h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 32);
}

/// The hash of `t`'s binding on `cols`, over the values' exact bits.
uint64_t HashBinding(const Tuple& t, const std::vector<size_t>& cols) {
  uint64_t h = 0;
  for (size_t col : cols) {
    const Value& v = t.ValueAt(col);
    switch (v.type()) {
      case ValueType::kFuzzy: {
        const Trapezoid& z = v.AsFuzzy();
        h = Fold(h, Bits(z.a()));
        h = Fold(h, Bits(z.b()));
        h = Fold(h, Bits(z.c()));
        h = Fold(h, Bits(z.d()));
        break;
      }
      case ValueType::kString:
        h = Fold(h ^ 1, std::hash<std::string>{}(v.AsString()));
        break;
      case ValueType::kNull:
        h = Fold(h, 2);
        break;
    }
  }
  return h;
}

/// Bitwise identity of two values (see distinct_bindings.h).
bool SameBits(const Value& x, const Value& y) {
  if (x.type() != y.type()) return false;
  switch (x.type()) {
    case ValueType::kFuzzy: {
      const Trapezoid& p = x.AsFuzzy();
      const Trapezoid& q = y.AsFuzzy();
      return Bits(p.a()) == Bits(q.a()) && Bits(p.b()) == Bits(q.b()) &&
             Bits(p.c()) == Bits(q.c()) && Bits(p.d()) == Bits(q.d());
    }
    case ValueType::kString:
      return x.AsString() == y.AsString();
    case ValueType::kNull:
      return true;
  }
  return false;
}

bool SameBinding(const Tuple& x, const Tuple& y,
                 const std::vector<size_t>& cols) {
  for (size_t col : cols) {
    if (!SameBits(x.ValueAt(col), y.ValueAt(col))) return false;
  }
  return true;
}

/// One open-addressing slot: the binding's index + 1 (0 = empty) and
/// the high half of its hash, tested before the values are.
struct Slot {
  uint32_t tag = 0;
  uint32_t binding = 0;
};

/// How many rows ahead the grouping pass hashes.
constexpr size_t kAhead = 8;

}  // namespace

LinkBindings BindingColumnsOf(const LinkShape& shape) {
  LinkBindings out;
  const auto add = [](std::vector<size_t>* cols, size_t col) {
    if (std::find(cols->begin(), cols->end(), col) == cols->end()) {
      cols->push_back(col);
    }
  };
  if (shape.has_link_columns) {
    if (!shape.is_aggregate) add(&out.outer, shape.outer_link_col);
    add(&out.inner, shape.inner_link_col);
  }
  for (const sql::BoundPredicate* pred : shape.correlations) {
    for (const sql::BoundOperand* operand : {&pred->lhs, &pred->rhs}) {
      if (!operand->is_column) continue;
      add(operand->column.up == 0 ? &out.inner : &out.outer,
          operand->column.column);
    }
  }
  return out;
}

DistinctBindings DistinctOn(std::vector<FT> rows,
                            const std::vector<size_t>& cols,
                            const Relation& relation,
                            const ParallelContext& ctx, CpuStats* cpu,
                            ExecTrace* trace) {
  OpScope op(Op::kDistinct, trace, ctx.progress, cpu);
  const size_t n = rows.size();
  op.SetInputRows(n);
  if (op.traced()) {
    std::string detail = relation.name() + " on ";
    for (size_t i = 0; i < cols.size(); ++i) {
      detail += (i == 0 ? "" : ",") + relation.name() + "." +
                relation.schema().ColumnAt(cols[i]).name;
    }
    op.SetDetail(std::move(detail));
  }
  // The representatives are a subsequence of the rows in row order, so
  // they are compacted into the rows' own storage: out.rows[k] is
  // written only after row k was read.
  DistinctBindings out;
  out.rows = std::move(rows);
  out.binding_of.resize(n);
  size_t bindings = 0;
  // Open addressing, at most two thirds full.
  size_t capacity = 16;
  while (capacity < n + n / 2) capacity <<= 1;
  const size_t mask = capacity - 1;
  std::vector<Slot> slots(capacity);
  // One serial pass in row order, so first occurrences keep their order,
  // software-pipelined: row i + kAhead is hashed, and its slot
  // prefetched, while row i is grouped.
  uint64_t ahead[kAhead];
  const auto hash_ahead = [&](size_t j) {
    const uint64_t h = HashBinding(*out.rows[j].tuple, cols);
    ahead[j % kAhead] = h;
    __builtin_prefetch(&slots[h & mask]);
  };
  for (size_t j = 0; j < std::min(n, kAhead); ++j) hash_ahead(j);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = ahead[i % kAhead];
    if (i + kAhead < n) hash_ahead(i + kAhead);
    const FT row = out.rows[i];
    const uint32_t tag = static_cast<uint32_t>(h >> 32);
    for (size_t at = h & mask;; at = (at + 1) & mask) {
      Slot& slot = slots[at];
      if (slot.binding == 0) {
        slot = Slot{tag, static_cast<uint32_t>(bindings + 1)};
        out.binding_of[i] = static_cast<uint32_t>(bindings);
        out.rows[bindings++] = row;
        break;
      }
      FT& rep = out.rows[slot.binding - 1];
      if (slot.tag == tag && SameBinding(*rep.tuple, *row.tuple, cols)) {
        rep.degree = std::max(rep.degree, row.degree);
        out.binding_of[i] = slot.binding - 1;
        break;
      }
    }
  }
  out.rows.resize(bindings);
  op.SetOutputRows(out.rows.size());
  return out;
}

}  // namespace fuzzydb
