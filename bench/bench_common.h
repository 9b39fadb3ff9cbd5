// Shared infrastructure for the paper-reproduction benchmarks.
//
// Scaling: the paper ran on a 1991 SPARC/IPC with 1-32 MB relations and a
// 2 MB buffer. We scale data sizes 16x down (64 KB - 2 MB) and the buffer
// identically (128 KB = 16 pages), so every buffer:data ratio matches the
// paper's, and add a simulated per-page device latency so the I/O share
// of response time is meaningful on a machine whose files sit in the OS
// page cache. Absolute times are not comparable to the paper; the shape
// (who wins, by what factor, where the trend bends) is.
#ifndef FUZZYDB_BENCH_BENCH_COMMON_H_
#define FUZZYDB_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/executor.h"
#include "obs/trace.h"
#include "storage/heap_file.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace bench {

/// The scale factor relative to the paper's data sizes.
inline constexpr size_t kScaleDown = 2;

/// The paper's buffer was 2 MB; scaled: 1 MB = 128 pages of 8 KB.
inline constexpr size_t kBufferPages = 128;

/// Simulated device latency per page transfer (microseconds). A 1991
/// SCSI disk service time was ~20 ms; scaled down with the data (and to
/// keep bench wall time in seconds) we default to 50 us per page.
uint64_t SimulatedLatencyUs();

/// Directory for bench working files (respects $TMPDIR, else /tmp).
std::string BenchDir();

/// On-disk dataset for one experiment configuration.
struct DatasetFiles {
  std::unique_ptr<PageFile> r;
  std::unique_ptr<PageFile> s;
  size_t tuple_bytes = 128;
  std::string r_path, s_path;

  DatasetFiles() = default;
  DatasetFiles(DatasetFiles&&) = default;
  DatasetFiles& operator=(DatasetFiles&&) = default;
  /// Removes the backing files.
  ~DatasetFiles();
};

/// Generates the workload and writes both relations as heap files padded
/// to `tuple_bytes` per record. Generation is not measured.
Result<DatasetFiles> MakeDatasetFiles(const WorkloadConfig& config,
                                      size_t tuple_bytes,
                                      const std::string& tag);

/// True when $FUZZYDB_BENCH_SMOKE is set (non-empty, not "0"): the CI
/// smoke mode, where benches shrink row counts to finish in seconds.
bool SmokeMode();

/// `n` normally, `smoke_n` (capped at n) under SmokeMode().
size_t SmokeRows(size_t n, size_t smoke_n = 64);

/// Runs the nested-loop execution of the experimental type J query.
/// With `trace` set, operator spans are recorded (see obs/trace.h).
Result<RunResult> RunNested(DatasetFiles* files, ExecTrace* trace = nullptr);

/// Runs the sort + extended-merge-join execution.
Result<RunResult> RunMerge(DatasetFiles* files, const std::string& tag,
                           ExecTrace* trace = nullptr);

/// Prints the per-operator summary of a traced run as single-line JSON
/// records: {"schema_version":...,"git_sha":...,"threads":...,
/// "bench":<bench>,"op":...} per span, machine-readable and comparable
/// across commits. `threads` is the run's ExecOptions::num_threads.
void EmitOperatorJson(const std::string& bench, const ExecTrace& trace,
                      int threads = 1);

/// Version of the BENCH_<suite>.json report schema; bump whenever a
/// field changes name or meaning so tools/bench_check.py can refuse to
/// compare incompatible files.
inline constexpr int kBenchSchemaVersion = 1;

/// The git revision the report describes: $FUZZYDB_GIT_SHA when set
/// (CI exports it from the checkout), else the configure-time value
/// baked into bench_common, else "unknown".
std::string GitSha();

/// Extracts PATH from a `--json-out=PATH` argument, else from
/// $FUZZYDB_BENCH_JSON_OUT, else "". Other arguments are ignored so
/// benches keep running under older invocations.
std::string JsonOutPath(int argc, char** argv);

/// One measured configuration inside a BenchReport. The counter fields
/// (ios, tuple_pairs, degree_evaluations, comparisons) are deterministic
/// for a seeded workload at num_threads = 1, so the regression checker
/// holds them exactly; the time and memory fields get ratio tolerances.
struct BenchReportEntry {
  std::string name;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  uint64_t ios = 0;
  uint64_t tuple_pairs = 0;
  uint64_t degree_evaluations = 0;
  uint64_t comparisons = 0;  // sort and merge-window key comparisons
  uint64_t peak_mem_bytes = 0;  // external sort + partitioned join peaks
  // Merge-window length distribution (Rng(r) from the paper) for the
  // entry's run, from the engine histogram.
  double window_p50 = 0.0;
  double window_p90 = 0.0;
  double window_p99 = 0.0;
  double window_max = 0.0;
  // Planner estimate quality for the entry's run: quantiles of the
  // per-span q-error distribution (max(est, act) / min(est, act);
  // 1.0 = perfect) from the engine histogram. 0 when the run recorded
  // no estimates (cost-based planning off or untraced).
  double plan_q_error_p50 = 0.0;
  double plan_q_error_max = 0.0;
};

/// Accumulates per-configuration results and writes the machine-read
/// BENCH_<suite>.json consumed by tools/bench_check.py.
class BenchReport {
 public:
  explicit BenchReport(std::string suite, int threads = 1);

  /// Records one configuration: the run's own stats plus the engine
  /// metrics accumulated since the previous Add (peak memory, merge
  /// window quantiles), then resets the registry so entries don't
  /// bleed into each other.
  void Add(const std::string& name, const ExecStats& stats);

  std::string ToJson() const;

  /// Writes ToJson() to `path` ("-" = stdout). Returns false (after a
  /// message to stderr) when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  std::string suite_;
  int threads_;
  std::vector<BenchReportEntry> entries_;
};

/// Writes `trace` as Chrome trace_event JSON to
/// $FUZZYDB_TRACE_DIR/<name>.trace.json when that env var is set.
/// Returns true when a file was written.
bool MaybeWriteChromeTrace(const ExecTrace& trace, const std::string& name);

/// Prints a standard header naming the experiment and the scaling.
void PrintHeader(const std::string& title, const std::string& paper_ref);

/// "12.5x" style formatting helpers.
std::string Seconds(double s);
std::string Ratio(double r);

}  // namespace bench
}  // namespace fuzzydb

#endif  // FUZZYDB_BENCH_BENCH_COMMON_H_
