#include "storage/file_manager.h"

#include <cstdio>

#include "common/failpoint.h"

namespace fuzzydb {

Result<std::unique_ptr<PageFile>> PageFile::Create(const std::string& path) {
  FUZZYDB_RETURN_IF_ERROR(FailPoints::Check("storage/file-create"));
  std::FILE* f = std::fopen(path.c_str(), "w+b");
  if (f == nullptr) {
    return Status::IoError("cannot create file '" + path + "'");
  }
  return std::unique_ptr<PageFile>(new PageFile(path, f, 0));
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
  return std::unique_ptr<PageFile>(
      new PageFile(path, f, static_cast<PageId>(size / kPageSize)));
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
