// Shared pieces of the FuzzyDB benchmark program: the command line, the
// statement model, latency statistics, answer digests, the TCP line
// client, and the span tracer used by the traced run.
//
// Every workload follows the same shape:
//
//   1. set up kSetups times from the seed (data generation, load or
//      recovery, server start, one warm-up pass) and keep the last one;
//   2. run the untraced closed loop for at least --seconds, recording
//      SELECT and INSERT latency as the client sees it;
//   3. check the answers (each workload's correctness gate);
//   4. print a human-readable report and, as the last stdout line, one
//      JSON object with the metrics BENCHMARK.json names.
//
// With --trace 1 step 2 is replaced by the traced run (trace.cc): a fixed
// statement script executed once through the real program surface and
// twice through the layer entry points, with and without spans around
// each call.
#ifndef FUZZYDB_PERFBENCH_BENCH_H_
#define FUZZYDB_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "relational/catalog.h"
#include "relational/relation.h"
#include "server/wire.h"

namespace fuzzydb {
namespace perfbench {

// ---- command line ---------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch space for WAL directories and traces
};

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// A per-purpose seed derived from the workload seed, so each generated
/// relation and statement stream has its own reproducible sequence.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// ---- statements -----------------------------------------------------

enum class Kind { kSelect, kInsert, kCheckpoint, kOther };

/// One request line plus what the benchmark knows about it. `shape` is
/// the workload's label for the statement (N, J, JX, JA_MAX, JA_COUNT,
/// JALL, CHAIN3, FILTER, INSERT, CHECKPOINT); per-shape trace metrics
/// are keyed by it. `conn` picks the connection that issues it in the
/// served workloads.
struct Stmt {
  Kind kind = Kind::kOther;
  std::string shape;
  std::string sql;
  size_t conn = 0;
};

Stmt Select(std::string shape, std::string sql, size_t conn = 0);
Stmt Insert(std::string sql, size_t conn = 0);

/// A number as a Fuzzy SQL literal that parses back to the same double.
std::string NumberLiteral(double x);
/// A fuzzy value as a literal (plain number when crisp, else TRAP).
std::string ValueLiteral(const Value& value);
/// "INSERT INTO <table> VALUES (...) DEGREE d;" for `tuple`.
std::string InsertStatement(const std::string& table, const Tuple& tuple);
/// "CREATE TABLE <name> (...);" matching `relation`'s schema.
std::string CreateStatement(const Relation& relation);
/// The table an INSERT statement writes.
std::string InsertTable(const std::string& sql);
/// Moves every tuple past the first `keep` out of `relation`: the
/// held-back tail becomes a workload's INSERT stream.
std::vector<Tuple> SplitTail(Relation* relation, size_t keep);

// ---- timing ---------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Process CPU time (user + sys, all threads) in milliseconds.
double ProcessCpuMs();
/// The process's peak resident set (VmHWM) in MiB.
double PeakRssMb();

/// Latencies needed per kind before a loop may end: p90 needs at least
/// 10 samples beyond it.
inline constexpr size_t kMinSamples = 100;

/// Nearest-rank q-quantile of `values` (sorted in place). A failed
/// statement is recorded as +infinity, so it misses every limit.
double Quantile(std::vector<double>* values, double q);

double Median(std::vector<double> values);

// ---- digests --------------------------------------------------------

/// FNV-1a over bytes; digests below chain it.
uint64_t Fnv(const std::string& bytes, uint64_t h = 1469598103934665603ull);
/// Order-independent digest of an answer relation: sorted exact tuples
/// (values and degree bits) plus column names.
uint64_t AnswerDigest(const Relation& answer);
/// Order-dependent digest of every relation in a catalog (sorted by
/// name), for comparing a live catalog with its recovered copy.
uint64_t CatalogDigest(const Catalog& catalog);
/// Digest of a reply frame's answer-bearing fields (status, error, text,
/// columns, rows, degree bits); timing fields are excluded.
uint64_t FrameDigest(const server::ReplyFrame& frame);

// ---- TCP line client ------------------------------------------------

/// Minimal blocking client of the server's line protocol.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(int port);
  /// Sends one line and reads its reply frame. `raw_bytes` (optional)
  /// receives the reply line's length.
  bool Roundtrip(const std::string& line, server::ReplyFrame* frame,
                 size_t* raw_bytes = nullptr);

 private:
  int fd_ = -1;
  std::string buffer_;
};

// ---- results --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `correct` is false when any correctness check
/// failed; main() then exits non-zero and prints no metrics.
struct Outcome {
  bool correct = true;
  std::string failure;  // first failed check
  uint64_t attempted = 0;
  uint64_t failed = 0;  // non-OK replies plus sheds
  uint64_t shed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> report;  // human-readable lines

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
  void Note(const std::string& line) { report.push_back(line); }
};

/// One completed SELECT or INSERT of a timed loop.
struct Sample {
  double latency_ms = 0.0;  // +infinity when the statement failed
  bool select = true;       // else an INSERT
};

/// What a timed loop recorded: its statements, and the process CPU time
/// and wall time it took.
struct LoopLog {
  std::vector<Sample> samples;
  double cpu_ms = 0.0;
  double wall_ms = 0.0;
};

/// Adds every end-to-end metric, computed over every sample of the loop.
/// Fails the outcome when the loop has fewer than kMinSamples SELECTs or
/// INSERTs.
void AddLoopMetrics(const LoopLog& log, double setup_s, double peak_rss_mb,
                    Outcome* out);

// ---- span tracer ----------------------------------------------------

/// Records spans (name, start, end, parent, statement id) in memory on
/// one thread; WriteJsonl dumps them when the run ends. Names are layer
/// metric stems such as "sql.parse" or "engine.evaluate"; the layer is
/// the part before the first '.'.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into spans(), -1 for a root
    uint32_t stmt;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far, for callers that need it before scope exit.
    double ElapsedUs() const;

   private:
    Tracer* tracer_;
    int32_t index_;
  };

  void set_statement(uint32_t id) { stmt_ = id; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: total duration and self time (duration minus the
  /// durations of its direct children), in microseconds, and calls.
  struct Totals {
    double total_us = 0.0;
    double self_us = 0.0;
    uint64_t calls = 0;
  };
  std::map<std::string, Totals> Summarize() const;

  bool WriteJsonl(const std::string& path) const;

 private:
  static int64_t NowNs();
  std::vector<Span> spans_;
  int32_t open_ = -1;
  uint32_t stmt_ = 0;
};

// ---- misc -----------------------------------------------------------

/// Removes a directory tree (best effort); used on WAL work directories.
void RemoveTree(const std::string& path);
/// Total bytes of the regular files under `path` (recursive).
uint64_t TreeBytes(const std::string& path);
bool MakeDirs(const std::string& path);

}  // namespace perfbench
}  // namespace fuzzydb

#endif  // FUZZYDB_PERFBENCH_BENCH_H_
