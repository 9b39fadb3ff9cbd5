#include "storage/heap_file.h"

#include "common/failpoint.h"

namespace fuzzydb {

Status HeapFileWriter::Append(const Tuple& tuple) {
  FUZZYDB_RETURN_IF_ERROR(FailPoints::Check("heapfile/append"));
  SerializeTuple(tuple, &scratch_, min_record_size_);
  if (scratch_.size() > kPageSize - 64) {
    return Status::InvalidArgument("tuple record too large for a page");
  }
  if (!current_.Fits(scratch_.size())) {
    FUZZYDB_RETURN_IF_ERROR(
        pool_->WritePage(file_, file_->NumPages(), current_));
    current_.Reset();
    current_dirty_ = false;
  }
  if (current_.Insert(scratch_.data(), scratch_.size()) < 0) {
    return Status::Internal("page insert failed after fit check");
  }
  current_dirty_ = true;
  ++tuples_written_;
  return Status::OK();
}

Status HeapFileWriter::Finish() {
  if (current_dirty_) {
    FUZZYDB_RETURN_IF_ERROR(
        pool_->WritePage(file_, file_->NumPages(), current_));
    current_.Reset();
    current_dirty_ = false;
  }
  return Status::OK();
}

Status HeapFileScanner::Next(Tuple* tuple, bool* has_tuple) {
  while (page_ < file_->NumPages()) {
    FUZZYDB_ASSIGN_OR_RETURN(const Page* page, pool_->GetPage(file_, page_));
    if (slot_ < page->NumRecords()) {
      uint16_t length;
      const uint8_t* record = page->Record(slot_, &length);
      FUZZYDB_ASSIGN_OR_RETURN(*tuple, DeserializeTuple(record, length));
      ++slot_;
      // Advance eagerly past exhausted pages so current_page() always
      // names the page of the next unread tuple (block joins rely on it).
      if (slot_ >= page->NumRecords()) {
        ++page_;
        slot_ = 0;
      }
      *has_tuple = true;
      return Status::OK();
    }
    ++page_;
    slot_ = 0;
  }
  *has_tuple = false;
  return Status::OK();
}

void HeapFileScanner::SeekToPage(PageId page) {
  page_ = page;
  slot_ = 0;
}

Result<std::unique_ptr<PageFile>> WriteRelationToFile(
    const Relation& relation, const std::string& path, BufferPool* pool,
    size_t min_record_size) {
  FUZZYDB_ASSIGN_OR_RETURN(std::unique_ptr<PageFile> file,
                           PageFile::Create(path));
  HeapFileWriter writer(file.get(), pool, min_record_size);
  for (const Tuple& t : relation.tuples()) {
    FUZZYDB_RETURN_IF_ERROR(writer.Append(t));
  }
  FUZZYDB_RETURN_IF_ERROR(writer.Finish());
  return file;
}

Result<Relation> ReadRelationFromFile(PageFile* file, BufferPool* pool,
                                      const std::string& name,
                                      const Schema& schema) {
  Relation relation(name, schema);
  HeapFileScanner scanner(file, pool);
  Tuple tuple;
  bool has = false;
  while (true) {
    FUZZYDB_RETURN_IF_ERROR(scanner.Next(&tuple, &has));
    if (!has) break;
    FUZZYDB_RETURN_IF_ERROR(relation.Append(std::move(tuple)));
    tuple = Tuple();
  }
  return relation;
}

}  // namespace fuzzydb
