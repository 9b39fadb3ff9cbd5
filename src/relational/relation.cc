#include "relational/relation.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/string_util.h"

namespace fuzzydb {

uint64_t Relation::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Relation::NextVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Relation Relation::CopyForWrite() const {
  Relation copy(name_, schema_);  // fresh id, version 0
  // One slot past the contents: the write that asked for the copy
  // appends next, and a full vector would move the whole fresh copy.
  copy.tuples_.reserve(tuples_.size() + 1);
  copy.tuples_.insert(copy.tuples_.end(), tuples_.begin(), tuples_.end());
  copy.id_ = id_;  // ...but keep the chain identity
  copy.version_ = NextVersion();
  return copy;
}

Status Relation::Append(Tuple tuple) {
  if (schema_.NumColumns() != 0 && tuple.NumValues() != schema_.NumColumns()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.NumValues()) +
        " does not match schema arity " +
        std::to_string(schema_.NumColumns()) + " of relation '" + name_ + "'");
  }
  if (tuple.degree() <= 0.0) return Status::OK();
  tuples_.push_back(std::move(tuple));
  version_ = NextVersion();
  return Status::OK();
}

Status Relation::AppendOrMax(Tuple tuple) {
  if (tuple.degree() <= 0.0) return Status::OK();
  for (Tuple& existing : tuples_) {
    if (existing.SameValues(tuple)) {
      existing.set_degree(std::max(existing.degree(), tuple.degree()));
      version_ = NextVersion();
      return Status::OK();
    }
  }
  return Append(std::move(tuple));
}

void Relation::EliminateDuplicates(double min_degree) {
  const size_t n = tuples_.size();
  const size_t arity = n == 0 ? 0 : tuples_[0].NumValues();
  const bool uniform = std::all_of(
      tuples_.begin(), tuples_.end(),
      [arity](const Tuple& t) { return t.NumValues() == arity; });
  // Row i's values are keys[i * arity, (i + 1) * arity), read once.
  std::vector<ValueKey> keys;
  if (uniform) {
    keys.reserve(n * arity);
    for (const Tuple& t : tuples_) {
      for (const Value& v : t.values()) keys.emplace_back(v);
    }
  }
  const auto less = [&](size_t x, size_t y) {
    if (!uniform) return TupleValueLess()(tuples_[x], tuples_[y]);
    const ValueKey* kx = keys.data() + x * arity;
    const ValueKey* ky = keys.data() + y * arity;
    for (size_t col = 0; col < arity; ++col) {
      const int cmp = CompareValueKeys(kx[col], ky[col]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  };
  // Stable, so each group of identical tuples starts with its first in
  // input order, whose values the survivor keeps.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), less);
  std::vector<Tuple> kept;
  for (size_t i = 0; i < n;) {
    const size_t first = order[i];
    double degree = tuples_[first].degree();
    for (++i; i < n && !less(first, order[i]); ++i) {
      degree = std::max(degree, tuples_[order[i]].degree());
    }
    if (degree >= min_degree && degree > 0.0) {
      kept.push_back(std::move(tuples_[first]));
      kept.back().set_degree(degree);
    }
  }
  tuples_ = std::move(kept);
  version_ = NextVersion();
}

void Relation::ApplyThreshold(double min_degree) {
  tuples_.erase(std::remove_if(tuples_.begin(), tuples_.end(),
                               [min_degree](const Tuple& t) {
                                 return t.degree() < min_degree;
                               }),
                tuples_.end());
  version_ = NextVersion();
}

void Relation::Sort(
    const std::function<bool(const Tuple&, const Tuple&)>& less) {
  std::stable_sort(tuples_.begin(), tuples_.end(), less);
  version_ = NextVersion();
}

bool Relation::EquivalentTo(const Relation& other, double tolerance) const {
  Relation a = *this;
  Relation b = other;
  a.EliminateDuplicates();
  b.EliminateDuplicates();
  if (a.NumTuples() != b.NumTuples()) return false;
  // EliminateDuplicates leaves both sides sorted by TupleValueLess.
  for (size_t i = 0; i < a.NumTuples(); ++i) {
    if (!a.TupleAt(i).SameValues(b.TupleAt(i))) return false;
    if (std::abs(a.TupleAt(i).degree() - b.TupleAt(i).degree()) > tolerance) {
      return false;
    }
  }
  return true;
}

std::string Relation::ToString(size_t max_rows) const {
  std::string out = name_.empty() ? "(anonymous)" : name_;
  out += " " + schema_.ToString() + " [" + std::to_string(tuples_.size()) +
         " tuples]\n";
  size_t shown = 0;
  for (const Tuple& t : tuples_) {
    if (shown++ >= max_rows) {
      out += "  ... (" + std::to_string(tuples_.size() - max_rows) +
             " more)\n";
      break;
    }
    out += "  " + t.ToString() + "\n";
  }
  return out;
}

}  // namespace fuzzydb
