// paper_nested: the paper's nested-query engine, embedded.
//
// One Shell session (engine threads 2, batch_size 1024, cost-based
// planning on, cross-query cache off) runs a closed loop over the query
// shapes of Sections 4-8 -- N, J, JX, JA(MAX), JA(COUNT), JALL on two
// seeded type J pairs at join fan-outs C=4 and C=64, plus a K=3 chain --
// each with a seeded WITH D >= threshold. After every SELECT one INSERT
// appends a held-back tuple of the same dataset to the queried outer
// relation.
//
// The chain's three relations come from the type J generator too (two
// datasets sharing one group layout), not from GenerateRandomRelation:
// random relations whose intervals may span the whole domain made the
// chain's cost swing by almost 2x from one seed to the next.
#include <limits>
#include <optional>
#include <sstream>

#include "cache/cache_manager.h"
#include "engine/naive_evaluator.h"
#include "shell/shell.h"
#include "sql/binder.h"
#include "trace.h"
#include "workload/generator.h"
#include "workloads.h"

namespace fuzzydb {
namespace perfbench {

namespace {

struct Sizes {
  size_t pair_r;       // outer relation of each type J pair
  size_t pair_s;       // inner relation
  size_t chain_outer;  // A
  size_t chain_inner;  // B2 and C3
};

constexpr Sizes kFull = {40000, 40000, 5000, 1000};
// The correctness gate's reduced instance: small enough for the naive
// nested-loop evaluator.
constexpr Sizes kReduced = {300, 300, 200, 40};
constexpr size_t kPool = 2000;  // held-back tuples per appended relation
constexpr size_t kEngineThreads = 2;
constexpr double kChainFanout = 8.0;

struct PaperData {
  std::vector<Relation> relations;
  std::map<std::string, std::vector<Tuple>> pools;  // INSERT streams
};

WorkloadConfig TypeJConfig(uint64_t seed, size_t num_r, size_t num_s,
                           double fanout) {
  WorkloadConfig config;
  config.seed = seed;
  config.num_r = num_r;
  config.num_s = num_s;
  config.join_fanout = fanout;
  config.partial_membership_fraction = 0.4;
  return config;
}

PaperData MakeData(uint64_t seed, const Sizes& sizes) {
  PaperData data;
  uint64_t stream = 1;
  for (const char* fanout : {"4", "64"}) {
    TypeJDataset dataset = GenerateTypeJDataset(
        TypeJConfig(SubSeed(seed, stream++), sizes.pair_r + kPool,
                    sizes.pair_s, std::stod(fanout)));
    dataset.r.set_name(std::string("R") + fanout);
    dataset.s.set_name(std::string("S") + fanout);
    data.pools[dataset.r.name()] = SplitTail(&dataset.r, sizes.pair_r);
    data.relations.push_back(std::move(dataset.r));
    data.relations.push_back(std::move(dataset.s));
  }
  // Equal num_s and fan-out give both datasets the same groups.
  TypeJDataset ab = GenerateTypeJDataset(
      TypeJConfig(SubSeed(seed, stream++), sizes.chain_outer + kPool,
                  sizes.chain_inner, kChainFanout));
  TypeJDataset c = GenerateTypeJDataset(TypeJConfig(
      SubSeed(seed, stream++), 0, sizes.chain_inner, kChainFanout));
  ab.r.set_name("A");
  ab.s.set_name("B2");
  c.s.set_name("C3");
  data.pools["A"] = SplitTail(&ab.r, sizes.chain_outer);
  data.relations.push_back(std::move(ab.r));
  data.relations.push_back(std::move(ab.s));
  data.relations.push_back(std::move(c.s));
  return data;
}

struct Shape {
  const char* name;
  const char* fanout;  // pair suffix; null for the chain
};

// One round: every shape on both pairs, then the chain.
const std::vector<Shape>& Round() {
  static const std::vector<Shape> round = [] {
    std::vector<Shape> shapes;
    for (const char* fanout : {"4", "64"}) {
      for (const char* name : {"N", "J", "JX", "JA_MAX", "JA_COUNT", "JALL"}) {
        shapes.push_back({name, fanout});
      }
    }
    shapes.push_back({"CHAIN3", nullptr});
    return shapes;
  }();
  return round;
}

std::string SelectSql(const Shape& shape, const std::string& theta) {
  const std::string name = shape.name;
  const std::string with = " WITH D >= " + theta + ";";
  if (name == "CHAIN3") {
    return "SELECT A.X FROM A WHERE A.Y IN "
           "(SELECT B2.Z FROM B2 WHERE B2.V = A.U AND B2.Z IN "
           "(SELECT C3.Z FROM C3 WHERE C3.V = B2.V))" +
           with;
  }
  const std::string r = std::string("R") + shape.fanout;
  const std::string s = std::string("S") + shape.fanout;
  const std::string corr = " WHERE " + s + ".V = " + r + ".U)";
  const std::string head = "SELECT " + r + ".X FROM " + r + " WHERE " + r;
  if (name == "N") {
    return head + ".Y IN (SELECT " + s + ".Z FROM " + s + ")" + with;
  }
  if (name == "J") {
    return head + ".Y IN (SELECT " + s + ".Z FROM " + s + corr + with;
  }
  if (name == "JX") {
    return head + ".Y NOT IN (SELECT " + s + ".Z FROM " + s + corr + with;
  }
  if (name == "JA_MAX") {
    return head + ".Y <= (SELECT MAX(" + s + ".Z) FROM " + s + corr + with;
  }
  if (name == "JA_COUNT") {
    return head + ".Y >= (SELECT COUNT(" + s + ".Z) FROM " + s + corr + with;
  }
  return head + ".Y <= ALL (SELECT " + s + ".Z FROM " + s + corr + with;
}

/// The seeded statement stream: the round's shapes in order, each
/// followed (when `inserts`) by one INSERT into the shape's outer
/// relation. Each shape's thresholds walk a seeded permutation of
/// {0.1, ..., 0.9}, so every nine rounds give every shape every
/// threshold once and the mix does not drift with the seed.
class PaperStatements {
 public:
  PaperStatements(uint64_t seed, const PaperData* data, bool inserts)
      : data_(data), inserts_(inserts) {
    Rng rng(seed);
    for (int i = 0; i < 9; ++i) thresholds_[i] = i + 1;
    for (int i = 8; i > 0; --i) {
      std::swap(thresholds_[i], thresholds_[rng.UniformInt(0, i)]);
    }
  }

  Stmt Next() {
    const Shape& shape = Round()[next_ % Round().size()];
    if (insert_due_) {
      insert_due_ = false;
      ++next_;
      const std::string table =
          shape.fanout == nullptr ? "A" : std::string("R") + shape.fanout;
      const std::vector<Tuple>& pool = data_->pools.at(table);
      size_t& pos = pool_pos_[table];
      return Insert(InsertStatement(table, pool[pos++ % pool.size()]));
    }
    // Shape i's k-th use takes permutation slot (i + k) mod 9.
    const size_t slot = next_ % Round().size() + next_ / Round().size();
    const std::string theta = "0." + std::to_string(thresholds_[slot % 9]);
    if (inserts_) {
      insert_due_ = true;
    } else {
      ++next_;
    }
    return Select(shape.name, SelectSql(shape, theta));
  }

 private:
  int thresholds_[9];
  const PaperData* data_;
  const bool inserts_;
  size_t next_ = 0;
  bool insert_due_ = false;
  std::map<std::string, size_t> pool_pos_;
};

constexpr uint64_t kLoopStream = 100;
constexpr uint64_t kWarmStream = 101;

std::unique_ptr<Shell> MakeShell(const PaperData& data) {
  auto shell = std::make_unique<Shell>();
  shell->set_quiet(true);
  shell->set_num_threads(kEngineThreads);
  shell->set_batch_size(1024);
  shell->set_cost_based(true);
  for (const Relation& relation : data.relations) {
    (void)shell->catalog().AddRelation(relation);
  }
  return shell;
}

ExecOptions EngineOptions() {
  ExecOptions options;
  options.num_threads = kEngineThreads;
  options.batch_size = 1024;
  options.cost_based = true;
  options.cache = &CacheManager::Global();  // capacity 0: inert
  return options;
}

/// Captures each SELECT's answer relation from the shell.
class AnswerSink : public ShellResultSink {
 public:
  void OnAnswer(const Relation& answer) override { answer_ = answer; }
  std::optional<Relation>& answer() { return answer_; }

 private:
  std::optional<Relation> answer_;
};

/// Pass A of the traced run: the embedded shell.
class ShellSurface : public Surface {
 public:
  explicit ShellSurface(uint64_t seed) : data_(MakeData(seed, kFull)) {
    shell_ = MakeShell(data_);
    shell_->set_result_sink(&sink_);
    PaperStatements warm(SubSeed(seed, kWarmStream), &data_, false);
    for (size_t i = 0; i < Round().size(); ++i) Execute(warm.Next());
  }

  Execution Execute(const Stmt& stmt) override {
    Execution done;
    std::ostringstream out;
    shell_->clear_error();
    sink_.answer().reset();
    const Relation* before = nullptr;
    if (stmt.kind == Kind::kInsert) {
      auto ref = shell_->catalog().GetRelationRef(InsertTable(stmt.sql));
      if (ref.ok()) before = ref->get();
    }
    const auto start = Clock::now();
    shell_->FeedLine(stmt.sql, out);
    done.exec_ms = done.wall_ms = MsSince(start);
    done.ok = !shell_->had_error();
    if (stmt.kind == Kind::kSelect) {
      done.ok = done.ok && sink_.answer().has_value();
      if (done.ok) done.digest = AnswerDigest(*sink_.answer());
    } else {
      done.digest = Fnv("OK|" + out.str());
      auto ref = shell_->catalog().GetRelationRef(InsertTable(stmt.sql));
      done.cow = ref.ok() && ref->get() != before ? 1 : 0;
    }
    return done;
  }
  bool served() const override { return false; }

 private:
  PaperData data_;
  AnswerSink sink_;
  std::unique_ptr<Shell> shell_;
};

/// Pass B of the traced run: the same catalog, replayed.
class PaperReplay : public ReplayEnv {
 public:
  explicit PaperReplay(uint64_t seed) : data_(MakeData(seed, kFull)) {
    for (const Relation& relation : data_.relations) {
      (void)catalog_.AddRelation(relation);
    }
    target_.catalog = &catalog_;
    target_.options = EngineOptions();
    PaperStatements warm(SubSeed(seed, kWarmStream), &data_, false);
    for (size_t i = 0; i < Round().size(); ++i) {
      Replay(warm.Next(), &target_, false, nullptr, nullptr);
    }
  }
  ReplayTarget* Target(size_t) override { return &target_; }

 private:
  PaperData data_;
  Catalog catalog_;
  ReplayTarget target_;
};

/// The gate: on a reduced instance from the same seed, every shape's
/// answer through the shell is bit-identical to NaiveEvaluator's.
void CheckAgainstNaive(uint64_t seed, Outcome* out) {
  const PaperData data = MakeData(seed, kReduced);
  std::unique_ptr<Shell> shell = MakeShell(data);
  AnswerSink sink;
  shell->set_result_sink(&sink);
  PaperStatements statements(SubSeed(seed, kLoopStream), &data, false);
  for (size_t i = 0; i < 2 * Round().size(); ++i) {
    const Stmt stmt = statements.Next();
    std::ostringstream text;
    shell->clear_error();
    sink.answer().reset();
    shell->FeedLine(stmt.sql, text);
    if (shell->had_error() || !sink.answer().has_value()) {
      out->Fail("reduced instance: statement failed: " + stmt.sql);
      return;
    }
    auto bound = sql::ParseAndBind(
        stmt.sql.substr(0, stmt.sql.rfind(';')), shell->catalog());
    if (!bound.ok()) {
      out->Fail("reduced instance: bind failed: " + stmt.sql);
      return;
    }
    NaiveEvaluator naive;
    auto expected = naive.Evaluate(**bound);
    if (!expected.ok() ||
        AnswerDigest(*expected) != AnswerDigest(*sink.answer())) {
      out->Fail("answer differs from NaiveEvaluator on: " + stmt.sql);
      return;
    }
  }
  out->Note("gate: " + std::to_string(2 * Round().size()) +
            " statements bit-identical to NaiveEvaluator on the reduced "
            "instance");
}

}  // namespace

Outcome RunPaperNested(const Options& options) {
  Outcome out;
  CacheManager::Global().set_capacity_bytes(0);

  if (options.trace) {
    TracedWorkload traced;
    traced.name = "paper_nested";
    {
      // The script only reads the pools of its data; the passes build
      // their own copies from the same seed.
      const PaperData data = MakeData(options.seed, kFull);
      PaperStatements statements(SubSeed(options.seed, kLoopStream), &data,
                                 true);
      for (size_t i = 0; i < 4 * Round().size(); ++i) {
        traced.script.push_back(statements.Next());
      }
    }
    const uint64_t seed = options.seed;
    traced.make_surface = [seed](Outcome*) {
      return std::make_unique<ShellSurface>(seed);
    };
    traced.make_replay = [seed](Tracer*, Outcome*) {
      return std::make_unique<PaperReplay>(seed);
    };
    RunTraced(traced, options, &out);
    return out;
  }

  std::vector<double> setup_s;
  std::unique_ptr<PaperData> data;
  std::unique_ptr<Shell> shell;
  for (int i = 0; i < kSetups; ++i) {
    shell.reset();
    data.reset();
    const auto start = Clock::now();
    data = std::make_unique<PaperData>(MakeData(options.seed, kFull));
    shell = MakeShell(*data);
    PaperStatements warm(SubSeed(options.seed, kWarmStream), data.get(),
                         false);
    for (size_t k = 0; k < Round().size(); ++k) {
      std::ostringstream sink;
      shell->FeedLine(warm.Next().sql, sink);
      if (shell->had_error()) {
        out.Fail("warm-up statement failed: " + sink.str());
        return out;
      }
    }
    setup_s.push_back(MsSince(start) / 1e3);
  }

  PaperStatements statements(SubSeed(options.seed, kLoopStream), data.get(),
                             true);
  // The loop ends on a whole round (every shape once, each followed by
  // its INSERT), so every run measures the same mix of statements.
  const size_t round_stmts = 2 * Round().size();
  LoopLog log;
  size_t selects = 0, inserts = 0;
  const double cpu0 = ProcessCpuMs();
  const auto loop_start = Clock::now();
  while (true) {
    if (log.samples.size() % round_stmts == 0) {
      const double elapsed_s = MsSince(loop_start) / 1e3;
      const bool enough = selects >= kMinSamples && inserts >= kMinSamples;
      if ((elapsed_s >= options.seconds && enough) ||
          elapsed_s >= kMaxLoopSeconds) {
        break;
      }
    }
    const Stmt stmt = statements.Next();
    std::ostringstream sink;
    shell->clear_error();
    const auto start = Clock::now();
    shell->FeedLine(stmt.sql, sink);
    double ms = MsSince(start);
    ++out.attempted;
    if (shell->had_error()) {
      ++out.failed;
      ms = std::numeric_limits<double>::infinity();
    }
    const bool select = stmt.kind == Kind::kSelect;
    ++(select ? selects : inserts);
    log.samples.push_back({ms, select});
  }
  log.wall_ms = MsSince(loop_start);
  log.cpu_ms = ProcessCpuMs() - cpu0;
  const double peak_rss_mb = PeakRssMb();
  shell.reset();
  data.reset();

  CheckAgainstNaive(options.seed, &out);
  AddLoopMetrics(log, Median(setup_s), peak_rss_mb, &out);
  return out;
}

}  // namespace perfbench
}  // namespace fuzzydb
