// The write-ahead log proper: append-only segment files under one
// directory, with group fsync, size-based rotation, and checkpointing
// (docs/durability.md).
//
// Layout of a WAL directory:
//   wal_<seq>.log    -- framed records (wal_record.h), seq zero-padded
//                       so lexical order is log order
//   checkpoint.meta  -- text manifest naming the live checkpoint image;
//                       its atomic rename IS the checkpoint commit point
//   ckpt_<lsn>/      -- a SaveDatabase image of the catalog as of <lsn>
//
// Durability contract: Append returns OK only after the record is in the
// segment file (and fsynced, in `always` mode). On *any* append-path
// failure -- injected or real, write, fsync, or rotation -- the segment
// is truncated back to its pre-append length, so a failed statement
// leaves no trace and recovery replays exactly the acknowledged prefix.
//
// Writer serialization: callers must hold the commit lock
// (AcquireCommitLock) across "append to WAL, then apply to catalog" so
// the log order equals the apply order -- that equality is what makes
// replay reproduce the uncrashed catalog bit-for-bit.
#ifndef FUZZYDB_WAL_WAL_MANAGER_H_
#define FUZZYDB_WAL_WAL_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/catalog.h"
#include "relational/relation.h"
#include "storage/buffer_pool.h"
#include "wal/wal_record.h"

namespace fuzzydb {
namespace wal {

/// When appends reach the disk platter.
enum class FsyncMode {
  kAlways,  // fsync every append: no acknowledged write is ever lost
  kBatch,   // fsync every batch_records appends: bounded loss window
  kOff,     // never fsync (tests / throwaway databases)
};

/// Parses "always" | "batch" | "off".
Result<FsyncMode> ParseFsyncMode(const std::string& text);

struct WalOptions {
  FsyncMode fsync = FsyncMode::kAlways;
  /// Rotate to a fresh segment once the active one reaches this size.
  uint64_t segment_bytes = 4ull << 20;
  /// In kBatch mode, fsync after this many unsynced appends.
  uint64_t batch_records = 32;
};

/// Path of segment `seq` under `dir` (wal_<seq, zero-padded>.log).
std::string WalSegmentPath(const std::string& dir, uint64_t seq);

/// Segment sequence numbers present in `dir`, ascending. An empty
/// directory yields an empty list, not an error.
Result<std::vector<uint64_t>> ListWalSegments(const std::string& dir);

/// The live checkpoint named by dir/checkpoint.meta.
struct CheckpointMeta {
  uint64_t lsn = 0;
  std::string image_dir;  // relative to the WAL dir, e.g. "ckpt_42"
};

/// Reads dir/checkpoint.meta; NotFound when no checkpoint was ever
/// committed, IoError when the manifest is damaged.
Result<CheckpointMeta> ReadCheckpointMeta(const std::string& dir);

/// Deletes checkpoint image directory `image` (a name like "ckpt_42")
/// under `dir`, best effort. Used when pruning superseded images and
/// when recovery sweeps images no manifest names.
void RemoveCheckpointImage(const std::string& dir, const std::string& image);

/// One open WAL. Thread-safe for Append/Sync/Checkpoint vs ToRelation
/// and the read accessors; writers must additionally serialize through
/// AcquireCommitLock (see file comment).
class WalManager {
 public:
  /// Opens the WAL in `dir`, continuing after the highest existing
  /// segment (recovery has already truncated any torn tail) or creating
  /// wal_00000001.log in an empty directory. `next_lsn` is the LSN the
  /// next Append will stamp (last replayed LSN + 1); `checkpoint_lsn`
  /// is the live checkpoint's covered LSN (0 if none).
  static Result<std::unique_ptr<WalManager>> Open(const std::string& dir,
                                                  const WalOptions& options,
                                                  uint64_t next_lsn,
                                                  uint64_t checkpoint_lsn);

  ~WalManager();
  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// Stamps `record->lsn`, frames and writes it, rotating and syncing
  /// per the options. OK means the record will survive recovery (modulo
  /// the fsync mode's loss window); any error means the log is exactly
  /// as if the call never happened.
  Status Append(WalRecord* record);

  /// Forces everything appended so far to disk (any fsync mode).
  Status Sync();

  /// Checkpoints `catalog`: sync, rotate, save a full image under
  /// ckpt_<lsn>/, commit it by atomically renaming checkpoint.meta, then
  /// prune segments and images the new checkpoint supersedes. On success
  /// `*checkpoint_lsn` is the covered LSN. On failure the previous
  /// checkpoint (if any) is still the live one; leftover temp files are
  /// swept by the next recovery.
  Status Checkpoint(const Catalog& catalog, BufferPool* pool,
                    uint64_t* checkpoint_lsn);

  /// The writers' commit lock: hold it across append + catalog apply.
  std::unique_lock<std::mutex> AcquireCommitLock() {
    return std::unique_lock<std::mutex>(commit_mu_);
  }

  /// LSN of the last appended record (0 if none yet).
  uint64_t LastLsn() const;
  /// LSN covered by the live checkpoint (0 if none).
  uint64_t CheckpointLsn() const;
  uint64_t SegmentCount() const;
  const std::string& dir() const { return dir_; }
  const WalOptions& options() const { return options_; }

  /// The sys.wal relation: one row per segment file
  /// (segment, bytes, active, first_lsn).
  Relation ToRelation() const;

 private:
  struct Segment {
    uint64_t seq = 0;
    uint64_t first_lsn = 0;  // 0 when unknown (pre-existing segment)
  };

  WalManager(std::string dir, WalOptions options, uint64_t next_lsn)
      : dir_(std::move(dir)), options_(options), next_lsn_(next_lsn) {}

  /// Opens (creating) segment `seq` for appending; updates fd_/offset_.
  Status OpenSegment(uint64_t seq, bool create);
  /// Closes the active segment and opens seq+1. Caller holds mu_.
  Status RotateLocked();
  Status SyncLocked();
  std::string SegmentPath(uint64_t seq) const;

  const std::string dir_;
  const WalOptions options_;

  std::mutex commit_mu_;  // writers' append+apply critical section

  mutable std::mutex mu_;  // guards everything below
  std::vector<Segment> segments_;  // ascending seq; back() is active
  int fd_ = -1;                    // active segment
  uint64_t offset_ = 0;            // append position in active segment
  uint64_t next_lsn_ = 1;
  uint64_t checkpoint_lsn_ = 0;
  uint64_t unsynced_records_ = 0;  // kBatch bookkeeping
};

}  // namespace wal
}  // namespace fuzzydb

#endif  // FUZZYDB_WAL_WAL_MANAGER_H_
