// Tuple (de)serialization for page storage.
//
// Record format:
//   [u8 value_count]
//   value_count x value:
//     [u8 ValueType tag] then
//       NULL:   (nothing)
//       STRING: [u32 length][bytes]
//       FUZZY:  [f64 a][f64 b][f64 c][f64 d]
//   [f64 degree]
// plus optional trailing padding (used by the workload generator to reach
// a target tuple size, mirroring the paper's 128..2048-byte tuples):
//   [u32 pad_length][pad bytes]
#ifndef FUZZYDB_STORAGE_SERIALIZER_H_
#define FUZZYDB_STORAGE_SERIALIZER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "relational/tuple.h"

namespace fuzzydb {

/// Serializes `tuple` into `out` (cleared first). When `min_size` > 0 the
/// record is padded up to at least `min_size` bytes.
void SerializeTuple(const Tuple& tuple, std::vector<uint8_t>* out,
                    size_t min_size = 0);

/// Parses a record produced by SerializeTuple. A record whose fuzzy
/// corners are out of order (or NaN) or whose degree lies outside
/// (0, 1] is corrupt and fails, like a truncated one.
Result<Tuple> DeserializeTuple(const uint8_t* data, size_t length);

/// Size in bytes SerializeTuple would produce without padding.
size_t SerializedTupleSize(const Tuple& tuple);

}  // namespace fuzzydb

#endif  // FUZZYDB_STORAGE_SERIALIZER_H_
