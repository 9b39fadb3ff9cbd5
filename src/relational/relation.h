// In-memory fuzzy relations.
//
// A fuzzy relation is a fuzzy set of tuples (Section 2.2). Tuples with
// identical attribute values are duplicates; when duplicates are
// eliminated, the surviving tuple keeps the *maximum* membership degree
// (fuzzy OR over the ways the tuple can arise).
#ifndef FUZZYDB_RELATIONAL_RELATION_H_
#define FUZZYDB_RELATIONAL_RELATION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace fuzzydb {

/// A named, in-memory fuzzy relation.
///
/// Every relation object carries a process-unique `id` and a `version`
/// drawn from a process-wide monotonic counter. The pair identifies the
/// *contents* of a relation at a point in time: every mutation (Append,
/// duplicate elimination, threshold, sort, handing out mutable_tuples())
/// stamps a fresh version, and a copied relation gets a fresh id. The
/// cross-query caches (src/cache/) key cached artifacts by (id, version),
/// so a cached entry can never be served after its source relation
/// changed -- invalidation-on-write is structural, not advisory.
///
/// Versions are process-unique (not per-object sequential) so that two
/// divergent copies of the same relation -- e.g. an MVCC copy-on-write
/// (CopyForWrite) racing a legacy deep copy -- can never both reach the
/// same (id, version) with different contents.
class Relation {
 public:
  Relation() : id_(NextId()) {}
  Relation(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)), id_(NextId()) {}

  /// Copies get a fresh identity: the copy is a distinct object whose
  /// future mutations must not collide with cache entries keyed to the
  /// source. Moves transfer the identity (same contents, same object).
  Relation(const Relation& other)
      : name_(other.name_),
        schema_(other.schema_),
        tuples_(other.tuples_),
        id_(NextId()) {}
  Relation& operator=(const Relation& other) {
    if (this != &other) {
      name_ = other.name_;
      schema_ = other.schema_;
      tuples_ = other.tuples_;
      id_ = NextId();
      version_ = 0;
    }
    return *this;
  }
  Relation(Relation&& other) noexcept
      : name_(std::move(other.name_)),
        schema_(std::move(other.schema_)),
        tuples_(std::move(other.tuples_)),
        id_(other.id_),
        version_(other.version_) {
    // The moved-from shell must not keep the identity: if it were mutated
    // afterwards it could reach the same (id, version) as this object
    // while holding different contents.
    other.id_ = NextId();
    other.version_ = 0;
  }
  Relation& operator=(Relation&& other) noexcept {
    if (this != &other) {
      name_ = std::move(other.name_);
      schema_ = std::move(other.schema_);
      tuples_ = std::move(other.tuples_);
      id_ = other.id_;
      version_ = other.version_;
      other.id_ = NextId();
      other.version_ = 0;
    }
    return *this;
  }

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }

  /// Process-unique identity of this relation object (fresh per copy).
  uint64_t id() const { return id_; }
  /// Stamped fresh on every mutation; (id, version) identifies the
  /// contents.
  uint64_t version() const { return version_; }

  /// A copy that *keeps* this relation's id (the MVCC version chain:
  /// same logical relation, next version) but stamps a fresh
  /// process-unique version. The snapshot catalog (relational/catalog.h)
  /// installs such copies on write while in-flight readers keep pinning
  /// the old version; cache entries keyed (id, old version) become
  /// unreachable through the new version for free, and id-keyed explicit
  /// invalidation still reaches every version of the chain.
  Relation CopyForWrite() const;

  size_t NumTuples() const { return tuples_.size(); }
  bool Empty() const { return tuples_.empty(); }
  const Tuple& TupleAt(size_t i) const { return tuples_[i]; }
  const std::vector<Tuple>& tuples() const { return tuples_; }
  std::vector<Tuple>& mutable_tuples() {
    // Conservative: the caller may mutate through the reference, so any
    // cached artifact derived from the old contents must stop matching.
    version_ = NextVersion();
    return tuples_;
  }

  /// Appends a tuple. Tuples with degree <= 0 are not members of a fuzzy
  /// relation and are silently dropped. Fails when the arity mismatches.
  Status Append(Tuple tuple);

  /// Appends, combining with an existing duplicate by max degree
  /// (fuzzy OR). O(n) per call; for many tuples, Append them all and
  /// call EliminateDuplicates once.
  Status AppendOrMax(Tuple tuple);

  /// Removes duplicates keeping the maximum degree per distinct value
  /// combination, and drops tuples below `min_degree` (the WITH clause:
  /// WITH D >= z). Survivors come out in value order (Value's total
  /// order, column by column), each with the values of the first tuple
  /// of its group in input order. One stable sort of flat value keys
  /// and one merge pass: O(n log n).
  void EliminateDuplicates(double min_degree = 0.0);

  /// Drops tuples whose degree is < min_degree.
  void ApplyThreshold(double min_degree);

  /// Sorts tuples with `less`.
  void Sort(const std::function<bool(const Tuple&, const Tuple&)>& less);

  /// Two relations are equivalent fuzzy sets: same distinct tuples with
  /// the same degrees within `tolerance`. Duplicate handling: both sides
  /// are compared after max-degree duplicate elimination.
  bool EquivalentTo(const Relation& other, double tolerance = 1e-9) const;

  /// Pretty table, for examples and debugging.
  std::string ToString(size_t max_rows = 50) const;

 private:
  /// Hands out process-unique relation ids (thread-safe).
  static uint64_t NextId();
  /// Hands out process-unique content versions (thread-safe).
  static uint64_t NextVersion();

  std::string name_;
  Schema schema_;
  std::vector<Tuple> tuples_;
  uint64_t id_ = 0;
  uint64_t version_ = 0;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_RELATIONAL_RELATION_H_
