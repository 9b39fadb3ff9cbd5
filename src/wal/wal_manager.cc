#include "wal/wal_manager.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/failpoint.h"
#include "storage/database.h"
#include "wal/wal_metrics.h"

namespace fuzzydb {
namespace wal {

namespace {

constexpr char kSegmentPrefix[] = "wal_";
constexpr char kSegmentSuffix[] = ".log";
constexpr char kMetaName[] = "checkpoint.meta";
constexpr char kMetaMagic[] = "fuzzydb-wal-checkpoint";

Status ErrnoError(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status EnsureDirectory(const std::string& dir) {
  struct stat st;
  if (stat(dir.c_str(), &st) == 0) {
    if (!S_ISDIR(st.st_mode)) {
      return Status::IoError("'" + dir + "' exists and is not a directory");
    }
    return Status::OK();
  }
  if (mkdir(dir.c_str(), 0755) != 0) {
    return ErrnoError("cannot create WAL directory '" + dir + "'");
  }
  return Status::OK();
}

// fsync of the directory itself, so entry creations/renames survive a
// crash. Best effort: some filesystems reject directory fsync.
void SyncDirectory(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)fsync(fd);
  close(fd);
}

Status WriteAll(int fd, const uint8_t* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("WAL write failed");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

Result<FsyncMode> ParseFsyncMode(const std::string& text) {
  if (text == "always") return FsyncMode::kAlways;
  if (text == "batch") return FsyncMode::kBatch;
  if (text == "off") return FsyncMode::kOff;
  return Status::InvalidArgument("unknown fsync mode '" + text +
                                 "' (expected always, batch, or off)");
}

std::string WalSegmentPath(const std::string& dir, uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%08llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(seq), kSegmentSuffix);
  return dir + "/" + name;
}

Result<std::vector<uint64_t>> ListWalSegments(const std::string& dir) {
  std::vector<uint64_t> seqs;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return seqs;
    return ErrnoError("cannot list WAL directory '" + dir + "'");
  }
  const size_t prefix_len = std::strlen(kSegmentPrefix);
  const size_t suffix_len = std::strlen(kSegmentSuffix);
  while (struct dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() <= prefix_len + suffix_len ||
        name.compare(0, prefix_len, kSegmentPrefix) != 0 ||
        name.compare(name.size() - suffix_len, suffix_len,
                     kSegmentSuffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    seqs.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  closedir(d);
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

Result<CheckpointMeta> ReadCheckpointMeta(const std::string& dir) {
  const std::string path = dir + "/" + kMetaName;
  std::ifstream in(path);
  if (!in) return Status::NotFound("no checkpoint in '" + dir + "'");
  std::string line;
  std::getline(in, line);
  std::istringstream fields(line);
  std::string magic, lsn_text, image;
  if (!std::getline(fields, magic, '\t') ||
      !std::getline(fields, lsn_text, '\t') ||
      !std::getline(fields, image, '\t') || magic != kMetaMagic ||
      lsn_text.empty() ||
      lsn_text.find_first_not_of("0123456789") != std::string::npos ||
      image.empty() || image.find('/') != std::string::npos) {
    return Status::IoError("damaged checkpoint manifest '" + path + "'");
  }
  CheckpointMeta meta;
  meta.lsn = std::strtoull(lsn_text.c_str(), nullptr, 10);
  meta.image_dir = image;
  return meta;
}

Result<std::unique_ptr<WalManager>> WalManager::Open(
    const std::string& dir, const WalOptions& options, uint64_t next_lsn,
    uint64_t checkpoint_lsn) {
  FUZZYDB_RETURN_IF_ERROR(EnsureDirectory(dir));
  auto seqs = ListWalSegments(dir);
  FUZZYDB_RETURN_IF_ERROR(seqs.status());

  std::unique_ptr<WalManager> wal(new WalManager(dir, options, next_lsn));
  wal->checkpoint_lsn_ = checkpoint_lsn;
  for (uint64_t seq : seqs.value()) {
    wal->segments_.push_back(Segment{seq, /*first_lsn=*/0});
  }
  if (wal->segments_.empty()) {
    wal->segments_.push_back(Segment{1, 0});
    FUZZYDB_RETURN_IF_ERROR(wal->OpenSegment(1, /*create=*/true));
    SyncDirectory(dir);
  } else {
    FUZZYDB_RETURN_IF_ERROR(
        wal->OpenSegment(wal->segments_.back().seq, /*create=*/false));
  }
  WalMetrics::Instance()->segments->Set(
      static_cast<int64_t>(wal->segments_.size()));
  WalMetrics::Instance()->last_lsn->Set(
      static_cast<int64_t>(next_lsn == 0 ? 0 : next_lsn - 1));
  return wal;
}

WalManager::~WalManager() {
  if (fd_ >= 0) {
    if (options_.fsync != FsyncMode::kOff) (void)fsync(fd_);
    close(fd_);
  }
}

Status WalManager::OpenSegment(uint64_t seq, bool create) {
  const std::string path = SegmentPath(seq);
  int flags = O_WRONLY | O_CLOEXEC;
  if (create) flags |= O_CREAT | O_EXCL;
  const int fd = open(path.c_str(), flags, 0644);
  if (fd < 0) return ErrnoError("cannot open WAL segment '" + path + "'");
  const off_t end = lseek(fd, 0, SEEK_END);
  if (end < 0) {
    close(fd);
    return ErrnoError("cannot seek WAL segment '" + path + "'");
  }
  if (fd_ >= 0) close(fd_);
  fd_ = fd;
  offset_ = static_cast<uint64_t>(end);
  return Status::OK();
}

std::string WalManager::SegmentPath(uint64_t seq) const {
  return WalSegmentPath(dir_, seq);
}

Status WalManager::RotateLocked() {
  FUZZYDB_RETURN_IF_ERROR(FailPoints::Check("wal/rotate"));
  // Make the outgoing segment durable before the log moves on; a crash
  // between rotation and the next sync must not lose its tail.
  FUZZYDB_RETURN_IF_ERROR(SyncLocked());
  const uint64_t seq = segments_.back().seq + 1;
  segments_.push_back(Segment{seq, 0});
  const Status opened = OpenSegment(seq, /*create=*/true);
  if (!opened.ok()) {
    segments_.pop_back();
    return opened;
  }
  SyncDirectory(dir_);
  WalMetrics* m = WalMetrics::Instance();
  m->rotations_total->Add(1);
  m->segments->Set(static_cast<int64_t>(segments_.size()));
  return Status::OK();
}

Status WalManager::SyncLocked() {
  if (unsynced_records_ == 0 && options_.fsync == FsyncMode::kBatch) {
    return Status::OK();
  }
  FUZZYDB_RETURN_IF_ERROR(FailPoints::Check("wal/fsync"));
  if (fsync(fd_) != 0) return ErrnoError("WAL fsync failed");
  unsynced_records_ = 0;
  WalMetrics::Instance()->fsyncs_total->Add(1);
  return Status::OK();
}

Status WalManager::Append(WalRecord* record) {
  std::lock_guard<std::mutex> lock(mu_);
  record->lsn = next_lsn_;
  std::vector<uint8_t> frame;
  EncodeWalRecord(*record, &frame);

  if (offset_ > 0 && offset_ + frame.size() > options_.segment_bytes) {
    FUZZYDB_RETURN_IF_ERROR(RotateLocked());
  }
  if (offset_ == 0 && segments_.back().first_lsn == 0) {
    segments_.back().first_lsn = record->lsn;
  }

  const uint64_t pre_offset = offset_;
  Status appended = FailPoints::Check("wal/append");
  if (appended.ok()) appended = WriteAll(fd_, frame.data(), frame.size());
  if (appended.ok()) {
    offset_ = pre_offset + frame.size();
    ++unsynced_records_;
    switch (options_.fsync) {
      case FsyncMode::kAlways:
        appended = SyncLocked();
        break;
      case FsyncMode::kBatch:
        if (unsynced_records_ >= options_.batch_records) {
          appended = SyncLocked();
        }
        break;
      case FsyncMode::kOff:
        unsynced_records_ = 0;
        break;
    }
  }
  if (!appended.ok()) {
    // Scrub the failed record (and nothing else: earlier records stay,
    // synced or not) so the durable log holds exactly the acknowledged
    // prefix -- the failed statement never happened.
    (void)ftruncate(fd_, static_cast<off_t>(pre_offset));
    (void)lseek(fd_, static_cast<off_t>(pre_offset), SEEK_SET);
    offset_ = pre_offset;
    return appended;
  }
  ++next_lsn_;
  WalMetrics* m = WalMetrics::Instance();
  m->appends_total->Add(1);
  m->append_bytes_total->Add(frame.size());
  m->last_lsn->Set(static_cast<int64_t>(record->lsn));
  return Status::OK();
}

Status WalManager::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.fsync == FsyncMode::kOff) return Status::OK();
  return SyncLocked();
}

Status WalManager::Checkpoint(const Catalog& catalog, BufferPool* pool,
                              uint64_t* checkpoint_lsn) {
  FUZZYDB_RETURN_IF_ERROR(FailPoints::Check("wal/checkpoint"));
  uint64_t durable_lsn = 0;
  uint64_t active_seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    FUZZYDB_RETURN_IF_ERROR(SyncLocked());
    durable_lsn = next_lsn_ - 1;
    // A fresh segment makes pruning exact: every earlier segment holds
    // only records the image below covers.
    FUZZYDB_RETURN_IF_ERROR(RotateLocked());
    active_seq = segments_.back().seq;
  }

  // 1. Save the image. Not yet the live checkpoint: recovery ignores
  //    ckpt_* directories checkpoint.meta does not name.
  const std::string image = "ckpt_" + std::to_string(durable_lsn);
  FUZZYDB_RETURN_IF_ERROR(SaveDatabase(catalog, dir_ + "/" + image, pool));

  // 2. Commit it: write the manifest to the side, fsync, then atomically
  //    rename over checkpoint.meta. The rename is the commit point.
  const std::string meta_path = dir_ + "/" + kMetaName;
  const std::string tmp_path = meta_path + ".tmp";
  {
    const int fd =
        open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) return ErrnoError("cannot write '" + tmp_path + "'");
    const std::string line = std::string(kMetaMagic) + "\t" +
                             std::to_string(durable_lsn) + "\t" + image + "\n";
    Status wrote =
        WriteAll(fd, reinterpret_cast<const uint8_t*>(line.data()),
                 line.size());
    if (wrote.ok() && fsync(fd) != 0) {
      wrote = ErrnoError("cannot sync '" + tmp_path + "'");
    }
    close(fd);
    if (!wrote.ok()) {
      (void)unlink(tmp_path.c_str());
      return wrote;
    }
  }
  if (std::rename(tmp_path.c_str(), meta_path.c_str()) != 0) {
    const Status failed = ErrnoError("cannot commit '" + meta_path + "'");
    (void)unlink(tmp_path.c_str());
    return failed;
  }
  SyncDirectory(dir_);

  // 3. Prune what the new checkpoint supersedes: every sealed segment
  //    and every other image. Best effort -- recovery sweeps leftovers.
  std::string old_image;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Segment> live;
    for (const Segment& seg : segments_) {
      if (seg.seq >= active_seq) {
        live.push_back(seg);
      } else {
        (void)unlink(SegmentPath(seg.seq).c_str());
      }
    }
    segments_ = std::move(live);
    if (checkpoint_lsn_ != durable_lsn) {
      old_image = "ckpt_" + std::to_string(checkpoint_lsn_);
    }
    checkpoint_lsn_ = durable_lsn;
    WalMetrics::Instance()->segments->Set(
        static_cast<int64_t>(segments_.size()));
  }
  if (!old_image.empty()) {
    RemoveCheckpointImage(dir_, old_image);
  }
  WalMetrics::Instance()->checkpoints_total->Add(1);

  // 4. An informational marker in the fresh segment, so the log itself
  //    records when checkpoints happened (sys.wal, debugging).
  WalRecord marker;
  marker.type = WalRecordType::kCheckpoint;
  marker.checkpoint_lsn = durable_lsn;
  FUZZYDB_RETURN_IF_ERROR(Append(&marker));

  if (checkpoint_lsn != nullptr) *checkpoint_lsn = durable_lsn;
  return Status::OK();
}

uint64_t WalManager::LastLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_ - 1;
}

uint64_t WalManager::CheckpointLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_lsn_;
}

uint64_t WalManager::SegmentCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

Relation WalManager::ToRelation() const {
  Relation rel("sys.wal", Schema{{"segment", ValueType::kString},
                                 {"bytes", ValueType::kFuzzy},
                                 {"active", ValueType::kFuzzy},
                                 {"first_lsn", ValueType::kFuzzy}});
  std::lock_guard<std::mutex> lock(mu_);
  for (const Segment& seg : segments_) {
    const bool active = seg.seq == segments_.back().seq;
    const std::string path = SegmentPath(seg.seq);
    const uint64_t bytes = active ? offset_ : FileBytes(path);
    const size_t slash = path.find_last_of('/');
    (void)rel.Append(Tuple(
        {Value::String(slash == std::string::npos ? path
                                                  : path.substr(slash + 1)),
         Value::Number(static_cast<double>(bytes)),
         Value::Number(active ? 1.0 : 0.0),
         Value::Number(static_cast<double>(seg.first_lsn))},
        /*degree=*/1.0));
  }
  return rel;
}

void RemoveCheckpointImage(const std::string& dir, const std::string& image) {
  const std::string path = dir + "/" + image;
  DIR* d = opendir(path.c_str());
  if (d != nullptr) {
    while (struct dirent* entry = readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      (void)unlink((path + "/" + name).c_str());
    }
    closedir(d);
  }
  (void)rmdir(path.c_str());
}

}  // namespace wal
}  // namespace fuzzydb
