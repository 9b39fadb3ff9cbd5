// RAII cleanup of temporary files (sort runs, partition spills).
//
// Operators that materialize temporaries track each path as soon as the
// file is created; the success path Untracks (or Dismisses) after its
// own cleanup, or leaves the removal to the guard, and any early-error
// return sweeps the leftovers here, so a failed query leaves no *.run /
// partition files behind.
//
// Error-path pool hygiene: by the time the guard runs, the PageFile
// objects for the tracked paths have usually been destroyed, leaving
// BufferPool frames keyed by dangling PageFile pointers (a later file
// allocated at the same address would get bogus cache hits). If anything
// is swept, the guard clears the whole pool -- the pool is write-through
// (no dirty pages), so this only costs re-reads on an already-failed
// query.
#ifndef FUZZYDB_STORAGE_TEMP_FILE_GUARD_H_
#define FUZZYDB_STORAGE_TEMP_FILE_GUARD_H_

#include <algorithm>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/file_manager.h"

namespace fuzzydb {

class TempFileGuard {
 public:
  explicit TempFileGuard(BufferPool* pool = nullptr) : pool_(pool) {}
  TempFileGuard(const TempFileGuard&) = delete;
  TempFileGuard& operator=(const TempFileGuard&) = delete;

  ~TempFileGuard() {
    if (dismissed_ || paths_.empty()) return;
    if (pool_ != nullptr) pool_->Clear();
    for (const std::string& path : paths_) RemoveFileIfExists(path);
  }

  void Track(std::string path) { paths_.push_back(std::move(path)); }

  void Untrack(const std::string& path) {
    paths_.erase(std::remove(paths_.begin(), paths_.end(), path),
                 paths_.end());
  }

  /// The success path: nothing is removed at destruction.
  void Dismiss() { dismissed_ = true; }

 private:
  BufferPool* pool_;
  std::vector<std::string> paths_;
  bool dismissed_ = false;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_STORAGE_TEMP_FILE_GUARD_H_
