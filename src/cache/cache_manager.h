// Cross-query caching of whole query answers.
//
// The paper's unnesting makes a nested query cheap within one
// execution: each input is sorted once in interval order and
// merge-joined (Section 3). A workload that repeats a query still pays
// that work on every run. CacheManager is a process-wide LRU of whole
// answers: the result of one unnested query, keyed by its canonical plan
// fingerprint (plan_fingerprint.h) and stored with the WITH threshold it
// was computed at. theta-subsumption lets an answer cached at t' <= t
// serve a request at t after ApplyThreshold(t).
//
// The cache holds nothing else. A query that is not a whole-answer hit
// runs exactly as it would with the cache off -- the same operators, the
// same counters -- so the cache can change wall time only where a whole
// answer repeats.
//
// Correctness stance:
//  - Capacity 0 (the default) makes every call an immediate no-op that
//    records nothing, so a cache-off run leaves no footprint, metrics
//    included.
//  - Staleness is impossible by construction: keys embed each relation
//    as (id, version), and the version changes on every mutation.
//    InvalidateRelation() additionally frees entries eagerly on writes.
//  - theta-subsumption is sound because every answer passes
//    EliminateDuplicates, which keeps max degrees independently of the
//    threshold, so filtering an answer computed at a lower threshold up
//    to a higher one is exact.
//
// Admission is charged through the query's MemoryBudget (charge then
// immediately release: denial skips the insert and is observable via
// denied_bytes, but never fails the query). Inserts and evictions are
// coverable by the "cache/insert" and "cache/evict" fail points.
#ifndef FUZZYDB_CACHE_CACHE_MANAGER_H_
#define FUZZYDB_CACHE_CACHE_MANAGER_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "relational/relation.h"

namespace fuzzydb {

/// Cumulative outcome counters of one CacheManager (monotonic; survive
/// Clear()). Thread-count invariant: the engine consults the cache once
/// per query, on the coordinating thread.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t denied = 0;       // inserts rejected by the memory budget
  uint64_t invalidated = 0;  // entries dropped by InvalidateRelation
};

class CacheManager {
 public:
  /// The process-wide instance the shell and executors share. Tests may
  /// construct private instances instead.
  static CacheManager& Global();

  CacheManager() = default;
  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  /// Byte capacity; 0 (default) disables the cache entirely -- every
  /// lookup and insert returns immediately without recording anything.
  /// Shrinking evicts immediately.
  void set_capacity_bytes(uint64_t bytes);
  uint64_t capacity_bytes() const;
  bool enabled() const { return capacity_bytes() > 0; }

  uint64_t used_bytes() const;
  CacheStats stats() const;

  /// Drops every entry. Stats survive.
  void Clear();

  /// Drops entries depending on `relation_id` (any write to a catalog
  /// relation). Version-keyed entries could never be *served* stale; this
  /// frees their bytes eagerly.
  void InvalidateRelation(uint64_t relation_id);

  /// theta-subsumption lookup: hits iff an entry exists whose stored
  /// threshold is <= `theta`; the caller must ApplyThreshold(theta) on a
  /// copy. Returns null on miss.
  std::shared_ptr<const Relation> LookupResult(const std::string& key,
                                               double theta);

  /// Stores `result` as the query's answer at threshold `theta`; `deps`
  /// are the ids of the relations it reads. If an entry at a lower (more
  /// general) threshold already exists it is kept and the insert is a
  /// no-op; an entry at a higher threshold is replaced by this more
  /// general one.
  bool InsertResult(const std::string& key, double theta,
                    std::shared_ptr<const Relation> result,
                    std::vector<uint64_t> deps, QueryContext* query);

  /// The sys.cache system relation: one row per resident answer, schema
  /// (key STRING, bytes FUZZY, hits FUZZY), sorted by key.
  Relation ToRelation() const;

  /// Deterministic size model for relation payloads (same relation =>
  /// same estimate at any thread count).
  static uint64_t EstimateRelationBytes(const Relation& rel);

 private:
  struct Entry {
    std::string key;
    uint64_t bytes = 0;
    double theta = 0.0;
    uint64_t hits = 0;
    std::vector<uint64_t> deps;  // relation ids
    std::shared_ptr<const Relation> result;
  };

  /// Locked helpers. InsertLocked runs fail points, budget admission,
  /// and LRU eviction, returning true when the entry was admitted.
  void RemoveLocked(std::list<Entry>::iterator it);
  bool InsertLocked(Entry entry, QueryContext* query);
  Entry* LookupLocked(const std::string& key);
  void MirrorBytesLocked();

  mutable std::mutex mu_;
  uint64_t capacity_ = 0;
  uint64_t used_ = 0;
  CacheStats stats_;
  std::list<Entry> entries_;  // front = most recently used
  std::map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_CACHE_CACHE_MANAGER_H_
