// The FuzzyDB benchmark program.
//
//   perfbench --workload paper_nested|served_point|ingest_mvcc
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a human-readable report, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. When any
// correctness check fails it prints the reason to stderr, no metrics,
// and exits 1.
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace fuzzydb {
namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_nested|served_point|ingest_mvcc --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      options->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (key == "--work-dir") {
      options->work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !options->workload.empty() &&
         options->seconds > 0;
}

void PrintJson(const Outcome& out) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  // glibc raises its mmap threshold as large blocks are freed, so how
  // much freed memory stays resident depends on the allocation history
  // and peak_rss_mb would wander between runs of the same input. A
  // fixed threshold returns every large block to the system on free.
  mallopt(M_MMAP_THRESHOLD, 256 << 10);
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage("bad arguments");
  if (options.work_dir.empty()) {
    options.work_dir = ".bench_work/run-" + std::to_string(getpid());
  }
  if (!MakeDirs(options.work_dir)) return Usage("cannot create --work-dir");

  Outcome out;
  if (options.workload == "paper_nested") {
    out = RunPaperNested(options);
  } else if (options.workload == "served_point") {
    out = RunServedPoint(options);
  } else if (options.workload == "ingest_mvcc") {
    out = RunIngestMvcc(options);
  } else {
    return Usage("unknown workload");
  }
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.Fail(m.name + " is not finite");
  }
  if (!out.correct) {
    std::fprintf(stderr, "perfbench: %s: check failed: %s\n",
                 options.workload.c_str(), out.failure.c_str());
    return 1;
  }
  std::printf("# %s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& line : out.report) {
    std::printf("# %s\n", line.c_str());
  }
  for (const Metric& m : out.metrics) {
    std::printf("# %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  PrintJson(out);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace fuzzydb

int main(int argc, char** argv) {
  return fuzzydb::perfbench::Main(argc, argv);
}
