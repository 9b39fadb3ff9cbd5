#include "engine/pair_join.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/op_scope.h"

namespace fuzzydb {

QueryContext* MutableQuery(const ParallelContext& ctx) {
  return const_cast<QueryContext*>(ctx.query);
}

size_t EffectiveBatchSize(const ParallelContext& ctx) {
  return std::clamp<size_t>(ctx.batch_size, 1, TrapezoidBatch::kCapacity);
}

SupportBounds KeyBounds(const Trapezoid& key, double cut) {
  SupportBounds bounds{key.SupportBegin(), key.SupportEnd()};
  if (cut <= 0.0) return bounds;
  // A kernel's edge degree and the cut each round within a few ulps of
  // the corners' magnitude; 8 epsilons covers both, and widening only
  // admits a pair that folds below the cut.
  constexpr double kSlack = 8 * std::numeric_limits<double>::epsilon();
  const double begin = key.AlphaCutBegin(cut) -
                       kSlack * (std::fabs(key.a()) + std::fabs(key.b()));
  const double end = key.AlphaCutEnd(cut) +
                     kSlack * (std::fabs(key.c()) + std::fabs(key.d()));
  // A NaN cut, or one widened past the support, keeps the support bound:
  // every kernel scores a point outside the support 0.
  if (begin > bounds.begin) bounds.begin = begin;
  if (end < bounds.end) bounds.end = end;
  return bounds;
}

namespace {

/// KeyBounds of fuzzy column `col` of `ft`'s tuple at `cut`.
SupportBounds BoundsOf(const FT& ft, size_t col, double cut) {
  return KeyBounds(ft.tuple->ValueAt(col).AsFuzzy(), cut);
}

/// Sorts by the interval order (Definition 3.1) of fuzzy column `col`'s
/// KeyBounds at `cut` and sets *bounds to the sorted keys' bounds. The
/// sort runs over flat {bounds, FT} records read in one pass, so its
/// comparisons never leave the record array. Parallel per-run sorts +
/// merge tree; order and comparison count are thread-count-invariant
/// (see ParallelSort).
///
/// A governed stop mid-sort returns the stop status; *tuples and
/// *bounds must then not be read.
Status SortByIntervalOrder(std::vector<FT>* tuples, size_t col, double cut,
                           const ParallelContext& ctx, CpuStats* cpu,
                           ExecTrace* trace,
                           std::vector<SupportBounds>* bounds) {
  OpScope op(Op::kIntervalSort, trace, ctx.progress, cpu, nullptr,
             "col" + std::to_string(col));
  op.SetInputRows(tuples->size());
  op.SetThreads(WorkerSlots(ctx));
  bounds->clear();
  bounds->reserve(tuples->size());
  struct Record {
    SupportBounds bounds;
    FT ft;
  };
  std::vector<Record> records;
  records.reserve(tuples->size());
  for (const FT& ft : *tuples) {
    records.push_back({BoundsOf(ft, col, cut), ft});
  }
  FUZZYDB_RETURN_IF_ERROR(SortByBounds(
      ctx, &records, cpu == nullptr ? nullptr : &cpu->comparisons));
  for (size_t i = 0; i < records.size(); ++i) {
    (*tuples)[i] = records[i].ft;
    bounds->push_back(records[i].bounds);
  }
  return Status::OK();
}

/// Positions [begin, end) of the sorted inner input.
struct WindowRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

/// Rng(r) over the sorted inner bounds, for outer key `r`. `*start` is
/// the scan position carried between the outer keys of one ascending
/// pass: 0 before the first key, afterwards what the previous call left.
/// Counts one comparison per boundary test and one tuple pair per inner
/// tuple in the window into *cpu (null = don't count).
WindowRange NextWindow(const std::vector<SupportBounds>& inner,
                       const SupportBounds& r, size_t* start, CpuStats* cpu) {
  const size_t n = inner.size();
  uint64_t comparisons = 0;
  size_t begin = *start;
  while (begin < n) {
    ++comparisons;
    if (inner[begin].end < r.begin) {
      ++begin;
    } else {
      break;
    }
  }
  *start = begin;
  size_t end = begin;
  while (end < n) {
    ++comparisons;
    if (inner[end].begin > r.end) break;
    ++end;
  }
  if (cpu != nullptr) {
    cpu->comparisons += comparisons;
    cpu->tuple_pairs += end - begin;
  }
  return WindowRange{begin, end};
}

/// One outer row of a keyed pair join: its key's bounds and its index.
struct OuterKey {
  SupportBounds bounds;
  size_t row = 0;
};

/// One worker's pending pairs and fold lanes.
struct PairWorker {
  std::vector<PairEntry> pairs;
  FoldScratch fold;
  BatchTally tally;
  Status status;
};

}  // namespace

Status PairJoin(const std::vector<FT>& outer, std::vector<FT>* inner,
                const PairKey* key, const ParallelContext& ctx,
                CpuStats* cpu, ExecTrace* trace, const PairSink& sink) {
  const size_t n = outer.size();
  // Keyed: the outer rows in interval order, each with its key's bounds.
  std::vector<OuterKey> outer_keys;
  std::vector<SupportBounds> inner_bounds;
  std::vector<double> inner_end_max;
  if (key != nullptr) {
    {
      OpScope sort_op(Op::kIntervalSort, trace, ctx.progress, cpu, nullptr,
                      "outer-view col" + std::to_string(key->outer_col));
      sort_op.SetInputRows(n);
      sort_op.SetThreads(WorkerSlots(ctx));
      outer_keys.reserve(n);
      for (size_t r = 0; r < n; ++r) {
        outer_keys.push_back(
            {BoundsOf(outer[r], key->outer_col, key->cut), r});
      }
      FUZZYDB_RETURN_IF_ERROR(SortByBounds(
          ctx, &outer_keys, cpu == nullptr ? nullptr : &cpu->comparisons));
    }
    FUZZYDB_RETURN_IF_ERROR(SortByIntervalOrder(inner, key->inner_col,
                                                key->cut, ctx, cpu, trace,
                                                &inner_bounds));
    inner_end_max.resize(inner_bounds.size());
    double running = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < inner_bounds.size(); ++i) {
      running = std::max(running, inner_bounds[i].end);
      inner_end_max[i] = running;
    }
  }

  const std::string cut_note =
      key != nullptr && key->cut > 0.0
          ? "cut=" + FormatDouble(key->cut) + " "
          : "";
  OpScope op(key != nullptr ? Op::kMergeWindow : Op::kNestedPairing, trace,
             ctx.progress, cpu, nullptr,
             cut_note + "inner=" + std::to_string(inner->size()));
  op.SetInputRows(n);
  op.SetThreads(WorkerSlots(ctx));
  std::vector<CpuStats> worker_cpu(WorkerSlots(ctx));
  std::vector<std::unique_ptr<PairWorker>> workers(WorkerSlots(ctx));
  // Windowed pairs per worker; the post-barrier sum is permutation-
  // invariant, so merge-window's rows_out -- the actual cardinality the
  // q-error gate compares est_pairs against, and the pairs sys.queries
  // reports -- is thread-count-invariant like the counters.
  std::vector<uint64_t> worker_pairs(WorkerSlots(ctx), 0);
  // Declared after `op` so a throwing sink still folds the worker
  // tallies before the span records its delta (see CpuStatsFolder).
  CpuStatsFolder folder(cpu == nullptr ? nullptr : &worker_cpu, cpu);
  // Hoisted out of the scan: the enabled path per outer row is one
  // relaxed-atomic Record of |Rng(r)|, the disabled path one null test.
  EngineMetrics* metrics = EngineMetrics::IfEnabled();
  Histogram* window_hist = key == nullptr || metrics == nullptr
                               ? nullptr
                               : metrics->merge_window_length;
  const size_t batch = EffectiveBatchSize(ctx);
  const size_t morsel_size = ctx.morsel_size == 0 ? 1 : ctx.morsel_size;

  ParallelFor(ctx, n, [&](size_t worker, size_t begin, size_t end) {
    std::unique_ptr<PairWorker>& w = workers[worker];
    if (w == nullptr) {
      w = std::make_unique<PairWorker>();
      w->pairs.reserve(batch);
      w->tally = EngineBatchTally();
    }
    if (!w->status.ok()) return;
    CpuStats* slot = cpu == nullptr ? nullptr : &worker_cpu[worker];
    auto flush = [&](bool morsel_end) {
      const size_t count = w->pairs.size();
      for (size_t k = 0; k < count; ++k) {
        const PairEntry& e = w->pairs[k];
        w->fold.degree[k] = std::min(outer[e.r].degree, e.s->degree);
      }
      w->status = sink(PairBatch{w->pairs.data(), count, worker,
                                 begin / morsel_size, morsel_end, &w->fold,
                                 slot, &w->tally});
      w->pairs.clear();
      return w->status.ok();
    };
    size_t window_start = 0;
    if (key != nullptr && begin > 0) {
      window_start = static_cast<size_t>(
          std::lower_bound(inner_end_max.begin(), inner_end_max.end(),
                           outer_keys[begin - 1].bounds.begin) -
          inner_end_max.begin());
    }
    for (size_t pos = begin; pos < end; ++pos) {
      size_t r = pos;
      WindowRange window{0, inner->size()};
      if (key != nullptr) {
        r = outer_keys[pos].row;
        window = NextWindow(inner_bounds, outer_keys[pos].bounds,
                            &window_start, slot);
        if (window_hist != nullptr) window_hist->Record(window.size());
        worker_pairs[worker] += window.size();
      } else {
        if (QueryStopRequested(ctx.query)) break;
        if (slot != nullptr) slot->tuple_pairs += inner->size();
      }
      for (size_t i = window.begin; i < window.end; ++i) {
        w->pairs.push_back(PairEntry{r, &(*inner)[i]});
        if (w->pairs.size() >= batch && !flush(/*morsel_end=*/false)) return;
      }
    }
    flush(/*morsel_end=*/true);
  });
  folder.Fold();
  if (key != nullptr) {
    uint64_t windowed = 0;
    for (uint64_t p : worker_pairs) windowed += p;
    op.SetOutputRows(windowed);
    op.SetEstimatedRows(key->est_pairs);
  }
  for (const auto& w : workers) {
    if (w == nullptr) continue;
    op.AddBatches(w->tally.batches, w->tally.rows);
    FUZZYDB_RETURN_IF_ERROR(w->status);
  }
  return CheckQuery(ctx.query);
}

}  // namespace fuzzydb
