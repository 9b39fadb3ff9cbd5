#include "storage/buffer_pool.h"

#include <cassert>
#include <ctime>

#include "common/failpoint.h"

namespace fuzzydb {

namespace {
uint64_t g_default_simulated_latency_us = 0;
}  // namespace

void BufferPool::SetDefaultSimulatedLatencyUs(uint64_t us) {
  g_default_simulated_latency_us = us;
}

BufferPool::BufferPool(size_t capacity, IoStats* stats)
    : capacity_(capacity == 0 ? 1 : capacity),
      simulated_latency_us_(g_default_simulated_latency_us),
      stats_(stats) {}

void BufferPool::set_capacity(size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  while (frames_.size() > capacity_) {
    const Frame& victim = frames_.back();
    index_.erase({victim.file, victim.id});
    frames_.pop_back();
  }
}

void BufferPool::SimulateDeviceLatency() const {
  if (simulated_latency_us_ == 0) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(simulated_latency_us_ / 1000000);
  ts.tv_nsec = static_cast<long>((simulated_latency_us_ % 1000000) * 1000);
  nanosleep(&ts, nullptr);
}

void BufferPool::CountRead() {
  ++local_stats_.page_reads;
  if (stats_ != nullptr) ++stats_->page_reads;
  SimulateDeviceLatency();
}

void BufferPool::CountWrite() {
  ++local_stats_.page_writes;
  if (stats_ != nullptr) ++stats_->page_writes;
  SimulateDeviceLatency();
}

void BufferPool::CountHit() {
  ++local_stats_.buffer_hits;
  if (stats_ != nullptr) ++stats_->buffer_hits;
}

void BufferPool::Touch(FrameList::iterator it) {
  frames_.splice(frames_.begin(), frames_, it);
}

Result<const Page*> BufferPool::GetPage(PageFile* file, PageId id) {
  FUZZYDB_RETURN_IF_ERROR(FailPoints::Check("bufferpool/get-page"));
  const Key key{file, id};
  auto found = index_.find(key);
  if (found != index_.end()) {
    CountHit();
    Touch(found->second);
    return const_cast<const Page*>(&frames_.front().page);
  }
  // Miss: evict if full, then read.
  if (frames_.size() >= capacity_) {
    const Frame& victim = frames_.back();
    index_.erase({victim.file, victim.id});
    frames_.pop_back();
  }
  frames_.emplace_front();
  Frame& frame = frames_.front();
  frame.file = file;
  frame.id = id;
  const Status st = file->ReadPage(id, &frame.page);
  if (!st.ok()) {
    frames_.pop_front();
    return st;
  }
  CountRead();
  index_[key] = frames_.begin();
  return const_cast<const Page*>(&frames_.front().page);
}

Status BufferPool::WritePage(PageFile* file, PageId id, const Page& page) {
  FUZZYDB_RETURN_IF_ERROR(file->WritePage(id, page));
  CountWrite();
  auto found = index_.find({file, id});
  if (found != index_.end()) {
    found->second->page = page;
    Touch(found->second);
  }
  return Status::OK();
}

void BufferPool::Invalidate(PageFile* file) {
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (it->file == file) {
      index_.erase({it->file, it->id});
      it = frames_.erase(it);
    } else {
      ++it;
    }
  }
}

void BufferPool::Clear() {
  frames_.clear();
  index_.clear();
}

}  // namespace fuzzydb
