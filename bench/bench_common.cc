#include "bench_common.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"

#ifndef FUZZYDB_GIT_SHA
#define FUZZYDB_GIT_SHA "unknown"
#endif

namespace fuzzydb {
namespace bench {

uint64_t SimulatedLatencyUs() {
  if (const char* env = std::getenv("FUZZYDB_BENCH_LATENCY_US")) {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 50;
}

std::string BenchDir() {
  if (const char* env = std::getenv("TMPDIR")) return env;
  return "/tmp";
}

DatasetFiles::~DatasetFiles() {
  r.reset();
  s.reset();
  if (!r_path.empty()) RemoveFileIfExists(r_path);
  if (!s_path.empty()) RemoveFileIfExists(s_path);
}

Result<DatasetFiles> MakeDatasetFiles(const WorkloadConfig& config,
                                      size_t tuple_bytes,
                                      const std::string& tag) {
  TypeJDataset dataset = GenerateTypeJDataset(config);
  DatasetFiles files;
  files.tuple_bytes = tuple_bytes;
  files.r_path = BenchDir() + "/fuzzydb_bench_" + tag + ".R";
  files.s_path = BenchDir() + "/fuzzydb_bench_" + tag + ".S";
  // Setup I/O is not part of the measured run: no simulated latency.
  BufferPool setup_pool(kBufferPages);
  setup_pool.set_simulated_latency_us(0);
  FUZZYDB_ASSIGN_OR_RETURN(
      files.r,
      WriteRelationToFile(dataset.r, files.r_path, &setup_pool, tuple_bytes));
  FUZZYDB_ASSIGN_OR_RETURN(
      files.s,
      WriteRelationToFile(dataset.s, files.s_path, &setup_pool, tuple_bytes));
  return files;
}

bool SmokeMode() {
  const char* env = std::getenv("FUZZYDB_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

size_t SmokeRows(size_t n, size_t smoke_n) {
  return SmokeMode() ? std::min(n, smoke_n) : n;
}

Result<RunResult> RunNested(DatasetFiles* files, ExecTrace* trace) {
  TypeJQuerySpec spec;
  ExecOptions options;
  options.num_threads = 1;
  options.trace = trace;
  return RunTypeJNestedLoop(files->r.get(), files->s.get(), spec,
                            kBufferPages, trace == nullptr ? nullptr
                                                           : &options);
}

Result<RunResult> RunMerge(DatasetFiles* files, const std::string& tag,
                           ExecTrace* trace) {
  TypeJQuerySpec spec;
  // num_threads = 1 keeps the serial comparison counts (see executor.h),
  // so traced and untraced runs measure the same plan.
  ExecOptions options;
  options.num_threads = 1;
  options.trace = trace;
  return RunTypeJMergeJoin(files->r.get(), files->s.get(), spec, kBufferPages,
                           BenchDir() + "/fuzzydb_bench_" + tag + ".tmp",
                           files->tuple_bytes,
                           trace == nullptr ? nullptr : &options);
}

void EmitOperatorJson(const std::string& bench, const ExecTrace& trace,
                      int threads) {
  // One JSON line per span so downstream tooling can grep/parse rows
  // without a JSON stream parser. The schema/sha/threads prefix makes
  // stored lines comparable across commits.
  struct Walk {
    const ExecTrace& trace;
    const std::string& bench;
    const std::string& sha;
    int threads;
    void Visit(size_t id, int depth) {
      const TraceNode& node = trace.nodes()[id];
      std::printf(
          "{\"schema_version\":%d,\"git_sha\":\"%s\",\"threads\":%d,"
          "\"bench\":\"%s\",\"op\":\"%s\",\"detail\":\"%s\",\"depth\":%d,"
          "\"wall_ms\":%.4f,\"pairs\":%llu,\"degree_evals\":%llu,"
          "\"comparisons\":%llu,\"page_reads\":%llu,\"page_writes\":%llu}\n",
          kBenchSchemaVersion, sha.c_str(), threads, bench.c_str(),
          node.name.c_str(), node.detail.c_str(), depth,
          node.wall_seconds * 1000.0,
          static_cast<unsigned long long>(node.cpu.tuple_pairs),
          static_cast<unsigned long long>(node.cpu.degree_evaluations),
          static_cast<unsigned long long>(node.cpu.comparisons),
          static_cast<unsigned long long>(node.io.page_reads),
          static_cast<unsigned long long>(node.io.page_writes));
      for (size_t child : node.children) Visit(child, depth + 1);
    }
  };
  const std::string sha = GitSha();
  Walk walk{trace, bench, sha, threads};
  for (size_t root : trace.roots()) walk.Visit(root, 0);
}

std::string GitSha() {
  if (const char* env = std::getenv("FUZZYDB_GIT_SHA")) {
    if (*env != '\0') return env;
  }
  return FUZZYDB_GIT_SHA;
}

std::string JsonOutPath(int argc, char** argv) {
  const std::string kFlag = "--json-out=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(kFlag, 0) == 0) return arg.substr(kFlag.size());
  }
  if (const char* env = std::getenv("FUZZYDB_BENCH_JSON_OUT")) return env;
  return "";
}

BenchReport::BenchReport(std::string suite, int threads)
    : suite_(std::move(suite)), threads_(threads) {
  // Start each suite from a clean registry so the first entry's peak
  // memory and window quantiles describe only its own run.
  MetricsRegistry::Global().ResetAll();
}

void BenchReport::Add(const std::string& name, const ExecStats& stats) {
  BenchReportEntry entry;
  entry.name = name;
  entry.wall_seconds = stats.total_seconds;
  entry.cpu_seconds = stats.cpu_seconds;
  entry.ios = stats.io.TotalIos();
  entry.tuple_pairs = stats.cpu.tuple_pairs;
  entry.degree_evaluations = stats.cpu.degree_evaluations;
  entry.comparisons = stats.cpu.comparisons;
  if (EngineMetrics* metrics = EngineMetrics::IfEnabled()) {
    entry.peak_mem_bytes = static_cast<uint64_t>(
        metrics->sort_memory->Peak() + metrics->join_memory->Peak());
    const HistogramSnapshot window = metrics->merge_window_length->Snapshot();
    entry.window_p50 = window.Quantile(0.50);
    entry.window_p90 = window.Quantile(0.90);
    entry.window_p99 = window.Quantile(0.99);
    entry.window_max = static_cast<double>(window.max);
    // The engine records q-errors scaled by 100 (histograms hold
    // integers); report them back in natural units.
    const HistogramSnapshot q_error = metrics->planner_q_error->Snapshot();
    if (q_error.total_count > 0) {
      entry.plan_q_error_p50 = q_error.Quantile(0.50) / 100.0;
      entry.plan_q_error_max = static_cast<double>(q_error.max) / 100.0;
    }
    MetricsRegistry::Global().ResetAll();
  }
  entries_.push_back(std::move(entry));
}

std::string BenchReport::ToJson() const {
  std::ostringstream out;
  out << "{\n"
      << "  \"schema_version\": " << kBenchSchemaVersion << ",\n"
      << "  \"git_sha\": \"" << GitSha() << "\",\n"
      << "  \"suite\": \"" << suite_ << "\",\n"
      << "  \"threads\": " << threads_ << ",\n"
      << "  \"smoke\": " << (SmokeMode() ? "true" : "false") << ",\n"
      << "  \"benches\": [";
  char buf[640];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const BenchReportEntry& e = entries_[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    {\"name\": \"%s\", \"wall_seconds\": %.6f, "
        "\"cpu_seconds\": %.6f, \"ios\": %llu, \"tuple_pairs\": %llu, "
        "\"degree_evaluations\": %llu, \"comparisons\": %llu, "
        "\"peak_mem_bytes\": %llu, "
        "\"window_p50\": %.3f, \"window_p90\": %.3f, "
        "\"window_p99\": %.3f, \"window_max\": %.0f, "
        "\"plan_q_error_p50\": %.3f, \"plan_q_error_max\": %.3f}",
        i == 0 ? "" : ",", e.name.c_str(), e.wall_seconds, e.cpu_seconds,
        static_cast<unsigned long long>(e.ios),
        static_cast<unsigned long long>(e.tuple_pairs),
        static_cast<unsigned long long>(e.degree_evaluations),
        static_cast<unsigned long long>(e.comparisons),
        static_cast<unsigned long long>(e.peak_mem_bytes), e.window_p50,
        e.window_p90, e.window_p99, e.window_max, e.plan_q_error_p50,
        e.plan_q_error_max);
    out << buf;
  }
  out << "\n  ]\n}\n";
  return out.str();
}

bool BenchReport::Write(const std::string& path) const {
  const std::string json = ToJson();
  if (path == "-") {
    std::fputs(json.c_str(), stdout);
    return true;
  }
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  file << json;
  std::printf("wrote %s\n", path.c_str());
  return true;
}

bool MaybeWriteChromeTrace(const ExecTrace& trace, const std::string& name) {
  const char* dir = std::getenv("FUZZYDB_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') return false;
  const std::string path = std::string(dir) + "/" + name + ".trace.json";
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  file << trace.ToChromeTraceJson();
  std::printf("wrote %s\n", path.c_str());
  return true;
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Scaling: data scaled down from the paper, buffer scaled "
              "identically (%zu pages);\n", kBufferPages);
  std::printf("simulated device latency %llu us/page "
              "(FUZZYDB_BENCH_LATENCY_US overrides).\n",
              static_cast<unsigned long long>(SimulatedLatencyUs()));
  std::printf("================================================================\n");
}

std::string Seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", s);
  return buf;
}

std::string Ratio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", r);
  return buf;
}

}  // namespace bench
}  // namespace fuzzydb
