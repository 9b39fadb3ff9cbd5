// The write-ahead log's on-disk record format (docs/durability.md).
//
// A WAL segment is a sequence of framed records:
//
//   [u32 magic "FWAL"][u32 payload_length][u32 crc32(payload)]
//   payload = [u64 lsn][u8 type][type-specific body]
//
// All integers are little-endian fixed-width; doubles are raw IEEE-754
// bytes, so a replayed degree or trapezoid corner is bit-identical to
// what the writer logged. Records are *logical redo* records: they name
// the catalog mutation (CREATE TABLE / INSERT / DROP TABLE / DEFINE
// TERM), not page images -- replaying them through the same catalog code
// reproduces the uncrashed in-memory state exactly.
//
// Bodies:
//   kCreateTable: [str table][u32 ncols]{[str col_name][u8 ValueType]}*
//   kInsert:      [str table][u32 len][SerializeTuple blob]
//   kDropTable:   [str table]
//   kDefineTerm:  [str term][f64 a][f64 b][f64 c][f64 d]
//   kCheckpoint:  [u64 checkpoint_lsn]   (informational; replay no-op)
//   where [str s] = [u32 length][bytes]
//
// Decoding classifies the tail precisely: kEnd (clean end of segment),
// kRecord (one valid record), or kCorrupt (short frame, bad magic,
// bad CRC, or malformed body -- a torn tail to recovery).
#ifndef FUZZYDB_WAL_WAL_RECORD_H_
#define FUZZYDB_WAL_WAL_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "fuzzy/trapezoid.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace fuzzydb {
namespace wal {

enum class WalRecordType : uint8_t {
  kCreateTable = 1,
  kInsert = 2,
  kDropTable = 3,
  kDefineTerm = 4,
  kCheckpoint = 5,
};


/// One logical redo record; the active fields depend on `type`.
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kInsert;

  std::string table;   // kCreateTable / kInsert / kDropTable
  Schema schema;       // kCreateTable
  Tuple tuple;         // kInsert (degree included)
  std::string term;    // kDefineTerm
  Trapezoid shape;     // kDefineTerm
  uint64_t checkpoint_lsn = 0;  // kCheckpoint
};

/// Appends the framed encoding of `record` to `*out`.
void EncodeWalRecord(const WalRecord& record, std::vector<uint8_t>* out);

enum class WalDecodeOutcome {
  kRecord,   // *record holds the next record; *consumed advanced
  kEnd,      // clean end of input (size == 0)
  kCorrupt,  // torn or damaged frame: valid prefix ends here
};

/// Decodes the record starting at `data`. On kRecord, `*consumed` is the
/// total frame size. kCorrupt covers every malformation (short header,
/// bad magic, CRC mismatch, truncated or undecodable body).
WalDecodeOutcome DecodeWalRecord(const uint8_t* data, size_t size,
                                 WalRecord* record, size_t* consumed);

/// CRC-32 (IEEE, reflected) of `data`; the checksum in every WAL frame.
uint32_t WalCrc32(const uint8_t* data, size_t size);

}  // namespace wal
}  // namespace fuzzydb

#endif  // FUZZYDB_WAL_WAL_RECORD_H_
