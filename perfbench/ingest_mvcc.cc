// ingest_mvcc: durable writes beside readers on the shared catalog.
//
// A ~50k-row base relation R (plus its inner relation S) is made durable
// at set-up as a checkpoint image and recovered by Server::Start (WAL
// mode, fsync batch of 32 records, cache on, one engine thread per
// session, three admission workers). One writer connection INSERTs
// held-back tuples of the same dataset into R and issues one CHECKPOINT
// after a fixed number of inserts; two reader connections run a type J
// select and selective filters over the growing relation.
#include <atomic>
#include <limits>
#include <thread>

#include "cache/cache_manager.h"
#include "server/server.h"
#include "storage/buffer_pool.h"
#include "trace.h"
#include "wal/recovery.h"
#include "wal/wal_metrics.h"
#include "workload/generator.h"
#include "workloads.h"

namespace fuzzydb {
namespace perfbench {

namespace {

constexpr size_t kBaseRows = 50000;
constexpr size_t kInnerRows = 2000;
constexpr size_t kPool = 20000;  // held-back INSERT stream
constexpr size_t kCheckpointAt = 250;    // CHECKPOINT after this insert
constexpr size_t kWriteAmpInserts = 500;  // write_amp covers this prefix
constexpr size_t kReaders = 2;
constexpr size_t kWorkers = 3;  // one per connection: nothing queues
constexpr uint64_t kCacheBytes = 512ull << 20;

struct IngestData {
  Relation r;
  Relation s;
  std::vector<Tuple> pool;
};

IngestData MakeData(uint64_t seed) {
  WorkloadConfig config;
  config.seed = SubSeed(seed, 1);
  config.num_r = kBaseRows + kPool;
  config.num_s = kInnerRows;
  config.join_fanout = 4;
  config.partial_membership_fraction = 0.4;
  TypeJDataset dataset = GenerateTypeJDataset(config);
  IngestData data;
  data.pool = SplitTail(&dataset.r, kBaseRows);
  data.r = std::move(dataset.r);
  data.s = std::move(dataset.s);
  return data;
}

wal::WalOptions WalOptions() {
  wal::WalOptions options;
  options.fsync = wal::FsyncMode::kBatch;
  options.batch_records = 32;
  return options;
}

/// Writes `data` into a fresh WAL directory as its checkpoint image.
Status MakeDurable(const IngestData& data, const std::string& dir) {
  RemoveTree(dir);
  if (!MakeDirs(dir)) return Status::IoError("cannot create " + dir);
  BufferPool pool(64);
  auto recovered = wal::OpenWalDatabase(dir, WalOptions(), &pool);
  if (!recovered.ok()) return recovered.status();
  if (Status s = recovered->catalog.AddRelation(data.r); !s.ok()) return s;
  if (Status s = recovered->catalog.AddRelation(data.s); !s.ok()) return s;
  uint64_t lsn = 0;
  return recovered->manager->Checkpoint(recovered->catalog, &pool, &lsn);
}

/// The writer: INSERTs from the pool, one CHECKPOINT after insert
/// kCheckpointAt.
class WriterStatements {
 public:
  explicit WriterStatements(const std::vector<Tuple>* pool) : pool_(pool) {}
  Stmt Next() {
    if (inserts_ == kCheckpointAt && !checkpointed_) {
      checkpointed_ = true;
      return Stmt{Kind::kCheckpoint, "CHECKPOINT", "CHECKPOINT;", 0};
    }
    return Insert(
        InsertStatement("R", (*pool_)[inserts_++ % pool_->size()]), 0);
  }

 private:
  const std::vector<Tuple>* pool_;
  size_t inserts_ = 0;
  bool checkpointed_ = false;
};

/// A reader: the cycle J, F, F, F (rotated per reader) with seeded
/// thresholds and filter centers.
class ReaderStatements {
 public:
  ReaderStatements(uint64_t seed, size_t reader)
      : rng_(SubSeed(seed, 20 + reader)), next_(reader * 2),
        conn_(1 + reader) {}
  Stmt Next() {
    const std::string theta = "0." + std::to_string(rng_.UniformInt(5, 9));
    if (next_++ % 4 == 0) return TypeJ(theta, conn_);
    return Filter(rng_.UniformInt(0, kBaseRows - 1), theta, conn_);
  }
  static Stmt TypeJ(const std::string& theta, size_t conn) {
    return Select("J",
                  "SELECT R.X FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE "
                  "S.V = R.U) WITH D >= " + theta + ";",
                  conn);
  }
  static Stmt Filter(int64_t center, const std::string& theta, size_t conn) {
    return Select("FILTER",
                  "SELECT R.X, R.Y FROM R WHERE R.X = ABOUT(" +
                      std::to_string(center) + ", 5) WITH D >= " + theta +
                      ";",
                  conn);
  }

 private:
  Rng rng_;
  size_t next_;
  const size_t conn_;
};

/// Every reader select kind once, on each reader connection.
std::vector<Stmt> WarmUp() {
  std::vector<Stmt> stmts;
  for (size_t r = 0; r < kReaders; ++r) {
    stmts.push_back(ReaderStatements::TypeJ("0.7", 1 + r));
    stmts.push_back(ReaderStatements::Filter(kBaseRows / 2, "0.7", 1 + r));
  }
  return stmts;
}

struct Served {
  std::unique_ptr<server::Server> server;
  std::vector<std::unique_ptr<Client>> clients;  // writer, then readers
};

/// Recovers `dir` in a started server and connects the three clients.
Served StartServed(const std::string& dir, Outcome* out) {
  Served served;
  server::ServerConfig config;
  config.workers = kWorkers;
  config.queue_depth = 64;
  config.session_defaults.threads = 1;
  config.session_defaults.cache = true;
  config.wal_dir = dir;
  config.wal_options = WalOptions();
  served.server = std::make_unique<server::Server>(config);
  if (Status s = served.server->Start(); !s.ok()) {
    out->Fail("server failed to start: " + s.ToString());
    return served;
  }
  for (size_t c = 0; c < 1 + kReaders; ++c) {
    served.clients.push_back(std::make_unique<Client>());
    if (!served.clients.back()->Connect(served.server->port())) {
      out->Fail("connect failed");
      return served;
    }
  }
  server::ReplyFrame frame;
  for (const Stmt& stmt : WarmUp()) {
    if (!served.clients[stmt.conn]->Roundtrip(stmt.sql, &frame) ||
        frame.status != "OK") {
      out->Fail("warm-up failed: " + stmt.sql);
      return served;
    }
  }
  return served;
}

/// Pass B of the traced run: the same image recovered through
/// wal::OpenWalDatabase under a wal.recovery span.
class IngestReplay : public ReplayEnv {
 public:
  IngestReplay(const IngestData& data, const std::string& dir,
               Tracer* tracer, Outcome* out) : pool_(64) {
    if (Status s = MakeDurable(data, dir); !s.ok()) {
      out->Fail("checkpoint image: " + s.ToString());
      return;
    }
    Result<wal::RecoveredDatabase> recovered = Status::Internal("unset");
    {
      Tracer::Scope span(tracer, "wal.recovery");
      recovered = wal::OpenWalDatabase(dir, WalOptions(), &pool_);
    }
    if (!recovered.ok()) {
      out->Fail("recovery: " + recovered.status().ToString());
      return;
    }
    catalog_ = std::move(recovered->catalog);
    wal_ = std::move(recovered->manager);
    target_.catalog = &catalog_;
    target_.wal = wal_.get();
    target_.options.num_threads = 1;
    target_.options.batch_size = 1024;
    target_.options.cost_based = true;
    target_.options.cache = &CacheManager::Global();
    for (const Stmt& stmt : WarmUp()) {
      if (!Replay(stmt, &target_, true, nullptr, nullptr).ok) {
        out->Fail("replay warm-up failed: " + stmt.sql);
        return;
      }
    }
  }
  ReplayTarget* Target(size_t) override { return &target_; }

 private:
  BufferPool pool_;
  Catalog catalog_;
  std::unique_ptr<wal::WalManager> wal_;
  ReplayTarget target_;
};

uint64_t CheckpointImageBytes(const std::string& dir) {
  auto meta = wal::ReadCheckpointMeta(dir);
  if (!meta.ok()) return 0;
  return TreeBytes(dir + "/" + meta->image_dir) +
         TreeBytes(dir + "/checkpoint.meta");
}

/// The gate: the live catalog after Server::Stop and its recovery from
/// the WAL directory hold base + acknowledged rows with equal digests.
void CheckRecovery(Served* served, const std::string& dir,
                   uint64_t acknowledged, Outcome* out) {
  served->clients.clear();
  served->server->Stop();
  const Catalog& live = *served->server->shared_catalog();
  const uint64_t live_digest = CatalogDigest(live);
  auto live_r = live.GetRelationRef("R");
  const size_t live_rows = live_r.ok() ? (*live_r)->NumTuples() : 0;
  live_r = Status::NotFound("released");
  served->server.reset();  // closes the log

  BufferPool pool(64);
  auto recovered = wal::OpenWalDatabase(dir, WalOptions(), &pool);
  if (!recovered.ok()) {
    out->Fail("recovery failed: " + recovered.status().ToString());
    return;
  }
  auto r = recovered->catalog.GetRelationRef("R");
  const size_t rows = r.ok() ? (*r)->NumTuples() : 0;
  const size_t expected = kBaseRows + acknowledged;
  if (live_rows != expected || rows != expected ||
      CatalogDigest(recovered->catalog) != live_digest) {
    out->Fail("recovered catalog differs from the live one: rows live " +
              std::to_string(live_rows) + ", recovered " +
              std::to_string(rows) + ", expected " + std::to_string(expected));
    return;
  }
  out->Note("gate: recovery holds " + std::to_string(rows) +
            " rows (base + " + std::to_string(acknowledged) +
            " acknowledged) with the live catalog's digest");
}

}  // namespace

Outcome RunIngestMvcc(const Options& options) {
  Outcome out;
  CacheManager::Global().set_capacity_bytes(kCacheBytes);
  const uint64_t seed = options.seed;

  if (options.trace) {
    auto data = std::make_shared<IngestData>(MakeData(seed));
    TracedWorkload traced;
    traced.name = "ingest_mvcc";
    WriterStatements writer(&data->pool);
    std::vector<ReaderStatements> readers;
    for (size_t r = 0; r < kReaders; ++r) readers.emplace_back(seed, r);
    // Deterministic interleave: a reader select after every fifth write.
    for (size_t i = 0; i < kWriteAmpInserts + 1; ++i) {
      traced.script.push_back(writer.Next());
      if (i % 5 == 4) traced.script.push_back(readers[(i / 5) % 2].Next());
    }
    // Each pass recovers its own copy of the image.
    const std::string traced_dir = options.work_dir + "/traced";
    const std::string dir_a = traced_dir + "/wal-a";
    traced.make_surface = [data, dir_a](Outcome* out)
        -> std::unique_ptr<Surface> {
      if (Status s = MakeDurable(*data, dir_a); !s.ok()) {
        out->Fail("checkpoint image: " + s.ToString());
        return nullptr;
      }
      Served served = StartServed(dir_a, out);
      Catalog* shared = served.server->shared_catalog();
      return std::make_unique<ServedSurface>(
          std::move(served.server), std::move(served.clients), shared);
    };
    auto replays = std::make_shared<int>(0);
    traced.make_replay = [data, traced_dir, replays](Tracer* tracer,
                                                     Outcome* out) {
      const std::string dir =
          traced_dir + "/wal-replay" + std::to_string((*replays)++);
      return std::make_unique<IngestReplay>(*data, dir, tracer, out);
    };
    RunTraced(traced, options, &out);
    RemoveTree(traced_dir);
    return out;
  }

  const std::string dir = options.work_dir + "/wal";
  std::vector<double> setup_s;
  std::unique_ptr<IngestData> data;
  Served served;
  for (int i = 0; i < kSetups; ++i) {
    served = Served{};
    data.reset();
    CacheManager::Global().Clear();
    const auto start = Clock::now();
    data = std::make_unique<IngestData>(MakeData(seed));
    if (Status s = MakeDurable(*data, dir); !s.ok()) {
      out.Fail("checkpoint image: " + s.ToString());
      return out;
    }
    served = StartServed(dir, &out);
    if (!out.correct) return out;
    setup_s.push_back(MsSince(start) / 1e3);
  }

  wal::WalMetrics* wal_metrics = wal::WalMetrics::Instance();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> selects_done{0}, inserts_done{0};
  std::vector<Sample> samples[1 + kReaders];
  uint64_t attempted[1 + kReaders] = {}, failed[1 + kReaders] = {};
  uint64_t shed[1 + kReaders] = {};
  uint64_t acknowledged = 0, insert_bytes = 0, image_bytes = 0;
  uint64_t append_bytes = 0;
  std::string errors[1 + kReaders];
  auto record = [&](size_t conn, const server::ReplyFrame& frame,
                    double ms) {
    ++attempted[conn];
    if (frame.status == "OK") return ms;
    ++failed[conn];
    if (frame.status == "RESOURCE_EXHAUSTED") ++shed[conn];
    return std::numeric_limits<double>::infinity();
  };

  LoopLog log;
  const double cpu0 = ProcessCpuMs();
  const uint64_t append0 = wal_metrics->append_bytes_total->Value();
  const auto loop_start = Clock::now();
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    WriterStatements writer(&data->pool);
    server::ReplyFrame frame;
    while (!stop.load(std::memory_order_relaxed)) {
      const Stmt stmt = writer.Next();
      const auto start = Clock::now();
      if (!served.clients[0]->Roundtrip(stmt.sql, &frame)) {
        errors[0] = "writer connection lost";
        return;
      }
      const double ms = record(0, frame, MsSince(start));
      if (stmt.kind == Kind::kCheckpoint) {
        image_bytes = CheckpointImageBytes(dir);
        continue;
      }
      samples[0].push_back({ms, false});
      if (frame.status != "OK") continue;
      ++acknowledged;
      if (acknowledged <= kWriteAmpInserts) insert_bytes += stmt.sql.size();
      if (acknowledged == kWriteAmpInserts) {
        append_bytes = wal_metrics->append_bytes_total->Value() - append0;
      }
      inserts_done.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      ReaderStatements reader(seed, r);
      server::ReplyFrame frame;
      while (!stop.load(std::memory_order_relaxed)) {
        const Stmt stmt = reader.Next();
        const auto start = Clock::now();
        if (!served.clients[1 + r]->Roundtrip(stmt.sql, &frame)) {
          errors[1 + r] = "reader connection lost";
          return;
        }
        const double ms = record(1 + r, frame, MsSince(start));
        samples[1 + r].push_back({ms, true});
        selects_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const double elapsed_s = MsSince(loop_start) / 1e3;
    const uint64_t inserts = inserts_done.load();
    const bool enough = selects_done.load() >= kMinSamples &&
                        inserts >= std::max(kMinSamples, kWriteAmpInserts);
    if ((elapsed_s >= options.seconds && enough) ||
        elapsed_s >= kMaxLoopSeconds) {
      break;
    }
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  log.wall_ms = MsSince(loop_start);
  log.cpu_ms = ProcessCpuMs() - cpu0;
  const double peak_rss_mb = PeakRssMb();

  for (size_t c = 0; c < 1 + kReaders; ++c) {
    if (!errors[c].empty()) out.Fail(errors[c]);
    out.attempted += attempted[c];
    out.failed += failed[c];
    out.shed += shed[c];
    log.samples.insert(log.samples.end(), samples[c].begin(),
                       samples[c].end());
  }
  if (acknowledged < kWriteAmpInserts || image_bytes == 0) {
    out.Fail("the writer did not reach the write_amp window");
  }
  CheckRecovery(&served, dir, acknowledged, &out);
  RemoveTree(dir);

  AddLoopMetrics(log, Median(setup_s), peak_rss_mb, &out);
  char line[160];
  std::snprintf(line, sizeof(line),
                "write_amp %.6f (WAL %llu B + checkpoint image %llu B over "
                "%llu B of the first %zu INSERTs)",
                static_cast<double>(append_bytes + image_bytes) /
                    static_cast<double>(std::max<uint64_t>(1, insert_bytes)),
                static_cast<unsigned long long>(append_bytes),
                static_cast<unsigned long long>(image_bytes),
                static_cast<unsigned long long>(insert_bytes),
                kWriteAmpInserts);
  out.Note(line);
  return out;
}

}  // namespace perfbench
}  // namespace fuzzydb
