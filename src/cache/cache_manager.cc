#include "cache/cache_manager.h"

#include <algorithm>

#include "common/failpoint.h"
#include "obs/metrics.h"

namespace fuzzydb {

namespace {

constexpr double kThetaEpsilon = 1e-12;

}  // namespace

CacheManager& CacheManager::Global() {
  // Heap-allocated intentionally (like MetricsRegistry): never destroyed,
  // so no exit-time query races static destruction order.
  static CacheManager* cache = new CacheManager();
  return *cache;
}

void CacheManager::set_capacity_bytes(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = bytes;
  // Shrinking below the resident set evicts from the LRU tail now.
  while (used_ > capacity_ && !entries_.empty()) {
    ++stats_.evictions;
    if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
      m->cache_evictions->Add();
    }
    RemoveLocked(std::prev(entries_.end()));
  }
  MirrorBytesLocked();
}

uint64_t CacheManager::capacity_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

uint64_t CacheManager::used_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_;
}

CacheStats CacheManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void CacheManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  while (!entries_.empty()) RemoveLocked(entries_.begin());
  MirrorBytesLocked();
}

void CacheManager::InvalidateRelation(uint64_t relation_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto next = std::next(it);
    if (std::find(it->deps.begin(), it->deps.end(), relation_id) !=
        it->deps.end()) {
      ++stats_.invalidated;
      RemoveLocked(it);
    }
    it = next;
  }
  MirrorBytesLocked();
}

void CacheManager::RemoveLocked(std::list<Entry>::iterator it) {
  used_ -= it->bytes;
  index_.erase(it->key);
  entries_.erase(it);
}

void CacheManager::MirrorBytesLocked() {
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->cache_bytes->Set(static_cast<int64_t>(used_));
  }
}

CacheManager::Entry* CacheManager::LookupLocked(const std::string& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  // Touch: move to the MRU end.
  entries_.splice(entries_.begin(), entries_, it->second);
  it->second = entries_.begin();
  return &*entries_.begin();
}

bool CacheManager::InsertLocked(Entry entry, QueryContext* query) {
  if (capacity_ == 0 || entry.bytes == 0 || entry.bytes > capacity_) {
    return false;
  }
  if (!FailPoints::Check("cache/insert").ok()) return false;
  // Admission control: reserve against the query's budget, then release
  // immediately -- the cache is not query-lifetime memory, but a query
  // that cannot afford the bytes must not populate the cache either.
  // MemoryBudget::Charge (not ChargeMemory) so a denial never latches the
  // query's stop flag: the query itself proceeds uncached.
  if (query != nullptr) {
    Status admitted = query->memory().Charge(entry.bytes);
    if (!admitted.ok()) {
      ++stats_.denied;
      return false;
    }
    query->memory().Release(entry.bytes);
  }
  bool abandon = false;
  while (used_ + entry.bytes > capacity_ && !entries_.empty()) {
    // A fault during eviction must leave the accounting balanced: the
    // eviction itself completes (bytes released) and only the pending
    // insert is abandoned.
    if (!FailPoints::Check("cache/evict").ok()) abandon = true;
    ++stats_.evictions;
    if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
      m->cache_evictions->Add();
    }
    RemoveLocked(std::prev(entries_.end()));
  }
  if (abandon) {
    MirrorBytesLocked();
    return false;
  }
  used_ += entry.bytes;
  ++stats_.inserts;
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->cache_inserts->Add();
  }
  entries_.push_front(std::move(entry));
  index_[entries_.front().key] = entries_.begin();
  MirrorBytesLocked();
  return true;
}

std::shared_ptr<const Relation> CacheManager::LookupResult(
    const std::string& key, double theta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return nullptr;
  Entry* e = LookupLocked(key);
  if (e == nullptr || e->theta > theta + kThetaEpsilon) {
    // An entry cached at a *higher* threshold cannot answer this query:
    // it already dropped tuples the caller needs.
    ++stats_.misses;
    if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
      m->cache_misses->Add();
    }
    return nullptr;
  }
  ++e->hits;
  ++stats_.hits;
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) m->cache_hits->Add();
  return e->result;
}

bool CacheManager::InsertResult(const std::string& key, double theta,
                                std::shared_ptr<const Relation> result,
                                std::vector<uint64_t> deps,
                                QueryContext* query) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0 || result == nullptr) return false;
  auto it = index_.find(key);
  if (it != index_.end()) {
    if (it->second->theta <= theta + kThetaEpsilon) {
      // The resident entry is at least as general; keep it.
      return false;
    }
    // This result was computed at a lower threshold: it subsumes the
    // resident one. Replace (not counted as an eviction).
    RemoveLocked(it->second);
  }
  Entry entry;
  entry.key = key;
  entry.theta = theta;
  entry.bytes = EstimateRelationBytes(*result);
  entry.deps = std::move(deps);
  entry.result = std::move(result);
  const bool ok = InsertLocked(std::move(entry), query);
  MirrorBytesLocked();
  return ok;
}

Relation CacheManager::ToRelation() const {
  std::lock_guard<std::mutex> lock(mu_);
  Relation rel("sys.cache", Schema{{"key", ValueType::kString},
                                   {"bytes", ValueType::kFuzzy},
                                   {"hits", ValueType::kFuzzy}});
  // index_ iterates in key order, so sys.cache rows are stable.
  for (const auto& [key, it] : index_) {
    (void)rel.Append(Tuple({Value::String(key),
                            Value::Number(static_cast<double>(it->bytes)),
                            Value::Number(static_cast<double>(it->hits))},
                           /*degree=*/1.0));
  }
  return rel;
}

uint64_t CacheManager::EstimateRelationBytes(const Relation& rel) {
  // Deterministic size model (exact allocation sizes vary by libstdc++):
  // fixed per-relation and per-tuple overheads plus a per-value cost.
  uint64_t bytes = 64;
  for (const Tuple& t : rel.tuples()) {
    bytes += 48;
    for (size_t i = 0; i < t.NumValues(); ++i) {
      const Value& v = t.ValueAt(i);
      if (v.is_string()) {
        bytes += 32 + v.AsString().size();
      } else if (v.is_fuzzy()) {
        bytes += 48;
      } else {
        bytes += 8;
      }
    }
  }
  return bytes;
}

}  // namespace fuzzydb
