// The three workloads. Each returns its Outcome; main() prints it.
//
//   paper_nested  the paper's nested-query engine, embedded
//   served_point  short statements over TCP, cache hits
//   ingest_mvcc   durable writes beside readers on a shared catalog
//
// README.md in this directory gives each one's sizes, thread budget and
// the layers it should and should not move.
#ifndef FUZZYDB_PERFBENCH_WORKLOADS_H_
#define FUZZYDB_PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace fuzzydb {
namespace perfbench {

Outcome RunPaperNested(const Options& options);
Outcome RunServedPoint(const Options& options);
Outcome RunIngestMvcc(const Options& options);

/// Upper bound on a timed loop, whatever --seconds says: the loop runs
/// past --seconds only until every percentile has enough samples.
inline constexpr double kMaxLoopSeconds = 120.0;

}  // namespace perfbench
}  // namespace fuzzydb

#endif  // FUZZYDB_PERFBENCH_WORKLOADS_H_
