// An LRU buffer pool with I/O accounting.
//
// Mirrors the paper's experimental setup: a fixed number of main-memory
// buffer pages sits between the algorithms and the page files, and every
// page transfer is counted (Fig. 3 reports I/O counts; the analysis in
// Section 3 reasons in buffer pages M). Writes are write-through, so
// eviction never needs a flush.
#ifndef FUZZYDB_STORAGE_BUFFER_POOL_H_
#define FUZZYDB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>

#include "common/status.h"
#include "storage/file_manager.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace fuzzydb {

/// Caches pages of PageFiles with LRU replacement.
class BufferPool {
 public:
  /// `capacity` is M, the number of buffer pages. `stats` may be null.
  explicit BufferPool(size_t capacity, IoStats* stats = nullptr);

  size_t capacity() const { return capacity_; }
  void set_capacity(size_t capacity);

  /// Returns the page, reading it from the file on a miss. The pointer is
  /// valid until the next GetPage/WritePage call (pages are unpinned; the
  /// caller must copy anything it needs across calls).
  Result<const Page*> GetPage(PageFile* file, PageId id);

  /// Write-through: updates the file (counting one page write) and the
  /// cached copy if present.
  Status WritePage(PageFile* file, PageId id, const Page& page);

  /// Drops all cached pages belonging to `file` (call before deleting or
  /// truncating a file).
  void Invalidate(PageFile* file);

  /// Drops everything.
  void Clear();

  const IoStats& stats() const { return local_stats_; }
  void ResetStats() { local_stats_.Reset(); }

  /// Simulated device latency added to every page read miss and page
  /// write, in microseconds. The paper's experiments ran on a 1991 disk;
  /// on a modern machine the files live in the OS page cache, so without
  /// this the I/O share of response time (Tables 2-4) would vanish.
  /// Default 0 (off); the benchmark harness enables it.
  void set_simulated_latency_us(uint64_t us) { simulated_latency_us_ = us; }
  uint64_t simulated_latency_us() const { return simulated_latency_us_; }

  /// Process-wide default applied to newly constructed pools (the join
  /// operators create internal pools; the bench harness sets this once).
  static void SetDefaultSimulatedLatencyUs(uint64_t us);

 private:
  struct Frame {
    PageFile* file;
    PageId id;
    Page page;
  };
  using FrameList = std::list<Frame>;
  using Key = std::pair<PageFile*, PageId>;

  void Touch(FrameList::iterator it);
  void CountRead();
  void CountWrite();
  void CountHit();
  void SimulateDeviceLatency() const;

  size_t capacity_;
  uint64_t simulated_latency_us_ = 0;
  IoStats* stats_;
  IoStats local_stats_;
  FrameList frames_;                       // front = most recently used
  std::map<Key, FrameList::iterator> index_;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_STORAGE_BUFFER_POOL_H_
