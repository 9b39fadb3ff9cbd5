// Page-granular file storage.
#ifndef FUZZYDB_STORAGE_FILE_MANAGER_H_
#define FUZZYDB_STORAGE_FILE_MANAGER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/page.h"

namespace fuzzydb {

/// A file of fixed-size pages. Thin wrapper over stdio with page-granular
/// reads and writes; all I/O accounting happens in the BufferPool above.
class PageFile {
 public:
  /// Creates (truncating) or opens a page file.
  static Result<std::unique_ptr<PageFile>> Create(const std::string& path);
  static Result<std::unique_ptr<PageFile>> Open(const std::string& path);

  ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Number of pages currently in the file.
  PageId NumPages() const { return num_pages_; }

  /// Reads page `id` into `*page`.
  Status ReadPage(PageId id, Page* page);

  /// Writes `page` at `id`; `id` may be at most NumPages() (append).
  Status WritePage(PageId id, const Page& page);

  /// Appends a page, returning its id.
  Result<PageId> AppendPage(const Page& page);

  const std::string& path() const { return path_; }

 private:
  PageFile(std::string path, std::FILE* file, PageId num_pages)
      : path_(std::move(path)), file_(file), num_pages_(num_pages) {}

  std::string path_;
  std::FILE* file_;
  PageId num_pages_;
};

/// Deletes the file at `path` if it exists.
void RemoveFileIfExists(const std::string& path);

}  // namespace fuzzydb

#endif  // FUZZYDB_STORAGE_FILE_MANAGER_H_
