#include "storage/file_manager.h"

#include <cstdio>
#include <map>
#include <mutex>

#include "common/failpoint.h"

namespace fuzzydb {

namespace {

/// Process-wide write-version registry: path -> LSN of the last write.
/// Guarded by a mutex; page I/O is fwrite-dominated, so the lock is noise.
struct VersionRegistry {
  std::mutex mu;
  uint64_t next_lsn = 1;
  std::map<std::string, uint64_t> by_path;

  static VersionRegistry& Instance() {
    static VersionRegistry* r = new VersionRegistry();
    return *r;
  }

  uint64_t Stamp(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu);
    return by_path[path] = next_lsn++;
  }

  uint64_t OpenVersion(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = by_path.emplace(path, 0);
    if (inserted) it->second = next_lsn++;
    return it->second;
  }
};

}  // namespace

Result<std::unique_ptr<PageFile>> PageFile::Create(const std::string& path) {
  FUZZYDB_RETURN_IF_ERROR(FailPoints::Check("storage/file-create"));
  std::FILE* f = std::fopen(path.c_str(), "w+b");
  if (f == nullptr) {
    return Status::IoError("cannot create file '" + path + "'");
  }
  // Truncating is a write: any cached artifact derived from a previous
  // file at this path must stop matching.
  const uint64_t version = VersionRegistry::Instance().Stamp(path);
  return std::unique_ptr<PageFile>(new PageFile(path, f, 0, version));
}

Result<std::unique_ptr<PageFile>> PageFile::Open(const std::string& path) {
  FUZZYDB_RETURN_IF_ERROR(FailPoints::Check("storage/file-open"));
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) {
    return Status::IoError("cannot open file '" + path + "'");
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IoError("cannot seek in file '" + path + "'");
  }
  const long size = std::ftell(f);
  if (size < 0 || static_cast<size_t>(size) % kPageSize != 0) {
    std::fclose(f);
    return Status::IoError("file '" + path + "' is not page-aligned");
  }
  const uint64_t version = VersionRegistry::Instance().OpenVersion(path);
  return std::unique_ptr<PageFile>(new PageFile(
      path, f, static_cast<PageId>(size / kPageSize), version));
}

PageFile::~PageFile() {
  if (file_ != nullptr) std::fclose(file_);
}

Status PageFile::ReadPage(PageId id, Page* page) {
  FUZZYDB_RETURN_IF_ERROR(FailPoints::Check("storage/page-read"));
  if (id >= num_pages_) {
    return Status::OutOfRange("page " + std::to_string(id) +
                              " out of range in '" + path_ + "'");
  }
  if (std::fseek(file_, static_cast<long>(id) * kPageSize, SEEK_SET) != 0 ||
      std::fread(page->raw(), kPageSize, 1, file_) != 1) {
    return Status::IoError("read failed on '" + path_ + "'");
  }
  return Status::OK();
}

Status PageFile::WritePage(PageId id, const Page& page) {
  FUZZYDB_RETURN_IF_ERROR(FailPoints::Check("storage/page-write"));
  if (id > num_pages_) {
    return Status::OutOfRange("page " + std::to_string(id) +
                              " beyond end of '" + path_ + "'");
  }
  if (std::fseek(file_, static_cast<long>(id) * kPageSize, SEEK_SET) != 0 ||
      std::fwrite(page.raw(), kPageSize, 1, file_) != 1) {
    return Status::IoError("write failed on '" + path_ + "'");
  }
  if (id == num_pages_) ++num_pages_;
  version_ = VersionRegistry::Instance().Stamp(path_);
  return Status::OK();
}

Result<PageId> PageFile::AppendPage(const Page& page) {
  const PageId id = num_pages_;
  FUZZYDB_RETURN_IF_ERROR(WritePage(id, page));
  return id;
}

void RemoveFileIfExists(const std::string& path) {
  std::remove(path.c_str());
}

}  // namespace fuzzydb
