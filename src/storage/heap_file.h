// Heap files: sequences of tuples stored on slotted pages.
//
// A relation's tuples are appended in arrival (or sorted) order; scans are
// sequential. All page traffic flows through a BufferPool so the paper's
// I/O counts are observable.
#ifndef FUZZYDB_STORAGE_HEAP_FILE_H_
#define FUZZYDB_STORAGE_HEAP_FILE_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "relational/relation.h"
#include "relational/tuple.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "storage/serializer.h"

namespace fuzzydb {

/// Appends tuples to a PageFile page by page. Call Finish() to flush the
/// final partial page.
class HeapFileWriter {
 public:
  /// `min_record_size`: pad each record to at least this many bytes (the
  /// paper's experiments control tuple size from 128 to 2048 bytes).
  HeapFileWriter(PageFile* file, BufferPool* pool, size_t min_record_size = 0)
      : file_(file), pool_(pool), min_record_size_(min_record_size) {}

  Status Append(const Tuple& tuple);
  Status Finish();

  uint64_t tuples_written() const { return tuples_written_; }

 private:
  PageFile* file_;
  BufferPool* pool_;
  size_t min_record_size_;
  Page current_;
  bool current_dirty_ = false;
  uint64_t tuples_written_ = 0;
  std::vector<uint8_t> scratch_;
};

/// Sequential scan over a heap file, tuple at a time, through the pool.
class HeapFileScanner {
 public:
  HeapFileScanner(PageFile* file, BufferPool* pool)
      : file_(file), pool_(pool) {}

  /// Fetches the next tuple. Sets *has_tuple = false at end of file.
  Status Next(Tuple* tuple, bool* has_tuple);

  /// Restarts the scan from page `page`, slot 0.
  void SeekToPage(PageId page);

  PageId current_page() const { return page_; }

 private:
  PageFile* file_;
  BufferPool* pool_;
  PageId page_ = 0;
  uint16_t slot_ = 0;
};

/// Writes all tuples of `relation` into a fresh page file at `path`.
Result<std::unique_ptr<PageFile>> WriteRelationToFile(
    const Relation& relation, const std::string& path, BufferPool* pool,
    size_t min_record_size = 0);

/// Reads an entire heap file into an in-memory Relation (schema supplied
/// by the caller).
Result<Relation> ReadRelationFromFile(PageFile* file, BufferPool* pool,
                                      const std::string& name,
                                      const Schema& schema);

}  // namespace fuzzydb

#endif  // FUZZYDB_STORAGE_HEAP_FILE_H_
