// The FuzzyDB multi-session server (docs/operations.md, "Server mode").
//
//   fuzzydb_server [--port=N]            listen port (0 = ephemeral)
//   fuzzydb_server --workers=N           query worker threads (default 2)
//   fuzzydb_server --queue-depth=N       pending-request bound beyond the
//                                        workers (default 16); overflow
//                                        is shed RESOURCE_EXHAUSTED
//   fuzzydb_server --memory-budget=N[kmg] process query-memory budget,
//                                        split fair-share across workers
//   fuzzydb_server --timeout-ms=N        default per-query deadline
//   fuzzydb_server --slow-query-ms=N     default slow-query threshold
//   fuzzydb_server --batch-size=N        default batch lanes per session
//   fuzzydb_server --threads=N           default engine threads/session
//   fuzzydb_server --no-cache            sessions start with cache off
//   fuzzydb_server --cache-mb=N          cross-query cache capacity
//   fuzzydb_server --query-log=PATH      structured query journal
//   fuzzydb_server --query-log-sample=N  journal every Nth query
//   fuzzydb_server --query-log-keep=N    rotated generations to keep
//   fuzzydb_server --metrics-json=PATH   dump metrics JSON on exit
//   fuzzydb_server --wal-dir=DIR         durable shared database: recover
//                                        DIR on start, log every mutation,
//                                        all sessions share the catalog
//   fuzzydb_server --wal-fsync=MODE      always (default) | batch | off
//
// Prints "listening on 127.0.0.1:<port>" once ready (stress harnesses
// parse the port). SIGINT initiates a graceful stop: every in-flight
// query is cancelled through the registry (each client sees a
// well-formed CANCELLED frame), the admission queue drains, and the
// process exits 0. A second SIGINT exits immediately.
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "cache/cache_manager.h"
#include "obs/metrics.h"
#include "obs/query_journal.h"
#include "server/server.h"
#include "shell/shell.h"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

// First SIGINT: cancel every in-flight query (async-signal-safe: one
// atomic load + one atomic add) and flag the main loop to stop
// gracefully. Second SIGINT: give up waiting and die.
extern "C" void HandleInterrupt(int) {
  if (g_stop_requested != 0) _exit(130);
  g_stop_requested = 1;
  (void)fuzzydb::Shell::CancelActiveQuery();
}

bool ParseByteSize(const std::string& text, uint64_t* bytes) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str()) return false;
  uint64_t multiplier = 1;
  if (*end != '\0') {
    switch (*end) {
      case 'k': case 'K': multiplier = 1ull << 10; break;
      case 'm': case 'M': multiplier = 1ull << 20; break;
      case 'g': case 'G': multiplier = 1ull << 30; break;
      default: return false;
    }
    if (*(end + 1) != '\0') return false;
  }
  *bytes = static_cast<uint64_t>(v) * multiplier;
  return true;
}

bool ParseUint(const std::string& text, uint64_t* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && end == text.c_str() + text.size() && !text.empty();
}

bool ParseNonNegativeDouble(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && !text.empty() && *value >= 0;
}

int Usage() {
  std::cerr
      << "usage: fuzzydb_server [--port=N] [--workers=N] "
         "[--queue-depth=N]\n"
         "    [--memory-budget=N[k|m|g]] [--timeout-ms=N] "
         "[--slow-query-ms=N]\n"
         "    [--batch-size=N] [--threads=N] [--no-cache] [--cache-mb=N]\n"
         "    [--query-log=PATH] [--query-log-sample=N] "
         "[--query-log-keep=N]\n"
         "    [--metrics-json=PATH] [--wal-dir=DIR]\n"
         "    [--wal-fsync=always|batch|off]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fuzzydb::server::ServerConfig config;
  std::string metrics_json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const std::string& flag) {
      return arg.substr(flag.size());
    };
    uint64_t number = 0;
    double ms = 0;
    if (arg.rfind("--port=", 0) == 0) {
      if (!ParseUint(value_of("--port="), &number) || number > 65535) {
        return Usage();
      }
      config.port = static_cast<int>(number);
    } else if (arg.rfind("--workers=", 0) == 0) {
      if (!ParseUint(value_of("--workers="), &number) || number == 0) {
        return Usage();
      }
      config.workers = static_cast<size_t>(number);
    } else if (arg.rfind("--queue-depth=", 0) == 0) {
      if (!ParseUint(value_of("--queue-depth="), &number)) return Usage();
      config.queue_depth = static_cast<size_t>(number);
    } else if (arg.rfind("--memory-budget=", 0) == 0) {
      if (!ParseByteSize(value_of("--memory-budget="), &number)) {
        return Usage();
      }
      config.memory_budget_total = number;
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      if (!ParseNonNegativeDouble(value_of("--timeout-ms="), &ms)) {
        return Usage();
      }
      config.session_defaults.timeout_ms = ms;
    } else if (arg.rfind("--slow-query-ms=", 0) == 0) {
      if (!ParseNonNegativeDouble(value_of("--slow-query-ms="), &ms)) {
        return Usage();
      }
      config.session_defaults.slow_query_ms = ms;
    } else if (arg.rfind("--batch-size=", 0) == 0) {
      if (!ParseUint(value_of("--batch-size="), &number) || number == 0) {
        return Usage();
      }
      config.session_defaults.batch_size = static_cast<size_t>(number);
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!ParseUint(value_of("--threads="), &number)) return Usage();
      config.session_defaults.threads = static_cast<size_t>(number);
    } else if (arg == "--no-cache") {
      config.session_defaults.cache = false;
    } else if (arg.rfind("--cache-mb=", 0) == 0) {
      if (!ParseUint(value_of("--cache-mb="), &number)) return Usage();
      fuzzydb::CacheManager::Global().set_capacity_bytes(number << 20);
    } else if (arg.rfind("--query-log=", 0) == 0) {
      const fuzzydb::Status status =
          fuzzydb::QueryJournal::Global().SetPath(value_of("--query-log="));
      if (!status.ok()) {
        std::cerr << status.ToString() << "\n";
        return 2;
      }
    } else if (arg.rfind("--query-log-sample=", 0) == 0) {
      if (!ParseUint(value_of("--query-log-sample="), &number)) {
        return Usage();
      }
      fuzzydb::QueryJournal::Global().set_sample_every(number);
    } else if (arg.rfind("--query-log-keep=", 0) == 0) {
      if (!ParseUint(value_of("--query-log-keep="), &number)) {
        return Usage();
      }
      fuzzydb::QueryJournal::Global().set_keep_files(number);
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_json_path = value_of("--metrics-json=");
    } else if (arg.rfind("--wal-dir=", 0) == 0) {
      config.wal_dir = value_of("--wal-dir=");
      if (config.wal_dir.empty()) return Usage();
    } else if (arg.rfind("--wal-fsync=", 0) == 0) {
      auto mode = fuzzydb::wal::ParseFsyncMode(value_of("--wal-fsync="));
      if (!mode.ok()) {
        std::cerr << mode.status().ToString() << "\n";
        return 2;
      }
      config.wal_options.fsync = *mode;
    } else {
      return Usage();
    }
  }

  fuzzydb::server::Server server(config);
  const fuzzydb::Status status = server.Start();
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }
  std::signal(SIGINT, HandleInterrupt);
  std::signal(SIGTERM, HandleInterrupt);
  std::cout << "listening on 127.0.0.1:" << server.port() << std::endl;

  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "shutting down" << std::endl;
  server.Stop();

  if (!metrics_json_path.empty()) {
    const std::string dump = fuzzydb::MetricsRegistry::Global().ToJson();
    if (metrics_json_path == "-") {
      std::cout << dump;
    } else {
      std::ofstream file(metrics_json_path);
      if (!file) {
        std::cerr << "cannot write " << metrics_json_path << "\n";
        return 1;
      }
      file << dump;
    }
  }
  return 0;
}
