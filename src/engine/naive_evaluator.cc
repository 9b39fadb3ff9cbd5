#include "engine/naive_evaluator.h"

#include <algorithm>
#include <functional>
#include <map>

#include "common/query_context.h"
#include "engine/aggregate.h"
#include "obs/metrics.h"
#include "obs/op_scope.h"

namespace fuzzydb {

namespace {

/// True when every SELECT item is an aggregate (an "aggregate block").
bool IsAggregateBlock(const sql::BoundQuery& query) {
  for (const auto& item : query.select) {
    if (item.agg != sql::AggFunc::kNone) return true;
  }
  return false;
}

}  // namespace

Result<Relation> NaiveEvaluator::Evaluate(const sql::BoundQuery& query) {
  OpScope op(Op::kNaiveEvaluate, trace_, progress_, cpu_, nullptr,
             query.tables.empty() ? std::string()
                                  : query.tables[0].relation->name());
  Frames frames;
  FUZZYDB_ASSIGN_OR_RETURN(Relation answer, EvaluateBlock(query, &frames));
  ApplyOrderBy(query.order_by, &answer);
  op.SetOutputRows(answer.NumTuples());
  return answer;
}

Result<Relation> NaiveEvaluator::EvaluateBlock(const sql::BoundQuery& query,
                                               Frames* frames) {
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) m->naive_blocks->Add();
  if (!query.group_by.empty()) {
    return EvaluateGroupedBlock(query, frames);
  }
  const bool aggregate_block = IsAggregateBlock(query);
  if (aggregate_block) {
    for (const auto& item : query.select) {
      if (item.agg == sql::AggFunc::kNone) {
        return Status::Unsupported(
            "mixing aggregates and plain columns in SELECT");
      }
    }
  }

  Relation result("", query.output_schema);

  // Per-aggregate-item fuzzy sets of collected values.
  std::vector<Relation> agg_sets;
  if (aggregate_block) {
    for (const auto& item : query.select) {
      agg_sets.emplace_back("", Schema{Column{item.name, ValueType::kFuzzy}});
    }
  }

  frames->emplace_back(query.tables.size(), nullptr);

  // Recursive nested loop over this block's tables.
  Status status;
  std::function<Status(size_t)> enumerate = [&](size_t table_idx) -> Status {
    if (table_idx < query.tables.size()) {
      for (const Tuple& tuple : query.tables[table_idx].relation->tuples()) {
        frames->back()[table_idx] = &tuple;
        FUZZYDB_RETURN_IF_ERROR(enumerate(table_idx + 1));
      }
      frames->back()[table_idx] = nullptr;
      return Status::OK();
    }

    // One complete combination: fold membership and predicate degrees.
    FUZZYDB_RETURN_IF_ERROR(CheckQuery(query_));
    if (cpu_ != nullptr) ++cpu_->tuple_pairs;
    double degree = FrameMembership(*frames);
    for (const auto& pred : query.predicates) {
      if (degree <= 0.0) break;
      FUZZYDB_ASSIGN_OR_RETURN(const double d, PredicateDegree(pred, frames));
      degree = std::min(degree, d);
    }
    if (degree <= 0.0) return Status::OK();

    if (aggregate_block) {
      for (size_t i = 0; i < query.select.size(); ++i) {
        const auto& ref = query.select[i].column;
        const Value& v =
            frames->back()[ref.table]->ValueAt(ref.column);
        FUZZYDB_RETURN_IF_ERROR(
            agg_sets[i].AppendOrMax(Tuple({v}, degree)));
      }
      return Status::OK();
    }

    std::vector<Value> values;
    values.reserve(query.select.size());
    for (const auto& item : query.select) {
      values.push_back(
          frames->back()[item.column.table]->ValueAt(item.column.column));
    }
    return result.Append(Tuple(std::move(values), degree));
  };
  status = enumerate(0);
  frames->pop_back();
  FUZZYDB_RETURN_IF_ERROR(status);

  if (aggregate_block) {
    std::vector<Value> values;
    double degree = 1.0;
    for (size_t i = 0; i < query.select.size(); ++i) {
      FUZZYDB_ASSIGN_OR_RETURN(
          AggregateResult agg,
          ApplyAggregate(query.select[i].agg, agg_sets[i]));
      if (agg.value.is_null()) {
        // Non-COUNT aggregate over an empty set: no usable value, the
        // block yields no tuple (Section 6: A(r) = null, d_r = 0).
        return result;
      }
      values.push_back(std::move(agg.value));
      degree = std::min(degree, agg.degree);
    }
    FUZZYDB_RETURN_IF_ERROR(result.Append(Tuple(std::move(values), degree)));
  }

  result.EliminateDuplicates(query.with_threshold);
  return result;
}

Result<Relation> NaiveEvaluator::EvaluateGroupedBlock(
    const sql::BoundQuery& query, Frames* frames) {
  // Aggregate expressions to collect per group: the aggregated SELECT
  // items followed by the aggregated HAVING items.
  struct AggExpr {
    sql::AggFunc func;
    sql::BoundColumnRef column;
  };
  std::vector<AggExpr> agg_exprs;
  for (const auto& item : query.select) {
    if (item.agg != sql::AggFunc::kNone) {
      agg_exprs.push_back({item.agg, item.column});
    }
  }
  const size_t having_agg_base = agg_exprs.size();
  for (const auto& item : query.having) {
    if (item.agg != sql::AggFunc::kNone) {
      agg_exprs.push_back({item.agg, item.column});
    }
  }

  // Maps group-by position of each plain SELECT / HAVING column.
  auto group_index_of = [&](const sql::BoundColumnRef& ref) -> size_t {
    for (size_t g = 0; g < query.group_by.size(); ++g) {
      if (query.group_by[g].table == ref.table &&
          query.group_by[g].column == ref.column) {
        return g;
      }
    }
    return query.group_by.size();  // binder prevents this
  };

  struct GroupState {
    double degree = 0.0;             // max member degree (fuzzy OR)
    std::vector<Relation> agg_sets;  // fuzzy value set per agg expression
  };
  std::map<Tuple, GroupState, TupleValueLess> groups;

  frames->emplace_back(query.tables.size(), nullptr);
  std::function<Status(size_t)> enumerate = [&](size_t table_idx) -> Status {
    if (table_idx < query.tables.size()) {
      for (const Tuple& tuple : query.tables[table_idx].relation->tuples()) {
        frames->back()[table_idx] = &tuple;
        FUZZYDB_RETURN_IF_ERROR(enumerate(table_idx + 1));
      }
      frames->back()[table_idx] = nullptr;
      return Status::OK();
    }
    FUZZYDB_RETURN_IF_ERROR(CheckQuery(query_));
    if (cpu_ != nullptr) ++cpu_->tuple_pairs;
    double degree = FrameMembership(*frames);
    for (const auto& pred : query.predicates) {
      if (degree <= 0.0) break;
      FUZZYDB_ASSIGN_OR_RETURN(const double d, PredicateDegree(pred, frames));
      degree = std::min(degree, d);
    }
    if (degree <= 0.0) return Status::OK();

    std::vector<Value> key_values;
    key_values.reserve(query.group_by.size());
    for (const auto& ref : query.group_by) {
      key_values.push_back(frames->back()[ref.table]->ValueAt(ref.column));
    }
    auto [it, fresh] =
        groups.emplace(Tuple(std::move(key_values), 1.0), GroupState{});
    GroupState& state = it->second;
    if (fresh) {
      for (size_t i = 0; i < agg_exprs.size(); ++i) {
        state.agg_sets.emplace_back(
            "", Schema{Column{"A", ValueType::kFuzzy}});
      }
    }
    state.degree = std::max(state.degree, degree);
    for (size_t i = 0; i < agg_exprs.size(); ++i) {
      const auto& ref = agg_exprs[i].column;
      FUZZYDB_RETURN_IF_ERROR(state.agg_sets[i].AppendOrMax(
          Tuple({frames->back()[ref.table]->ValueAt(ref.column)}, degree)));
    }
    return Status::OK();
  };
  const Status enumerate_status = enumerate(0);
  frames->pop_back();
  FUZZYDB_RETURN_IF_ERROR(enumerate_status);

  // Finalize each group.
  Relation result("", query.output_schema);
  for (const auto& [key, state] : groups) {
    double degree = state.degree;

    // HAVING conjuncts fold in by min.
    size_t having_agg = having_agg_base;
    for (const auto& item : query.having) {
      if (degree <= 0.0) break;
      Value lhs;
      if (item.agg == sql::AggFunc::kNone) {
        lhs = key.ValueAt(group_index_of(item.column));
      } else {
        FUZZYDB_ASSIGN_OR_RETURN(
            AggregateResult agg,
            ApplyAggregate(item.agg, state.agg_sets[having_agg]));
        ++having_agg;
        if (agg.value.is_null()) {
          degree = 0.0;
          break;
        }
        lhs = std::move(agg.value);
        degree = std::min(degree, agg.degree);
      }
      if (cpu_ != nullptr) ++cpu_->degree_evaluations;
      degree = std::min(
          degree, lhs.Compare(item.op, item.constant, item.approx_tolerance));
    }
    if (degree <= 0.0) continue;

    // Output row: grouping values and aggregate results.
    std::vector<Value> values;
    values.reserve(query.select.size());
    size_t select_agg = 0;
    bool dropped = false;
    for (const auto& item : query.select) {
      if (item.agg == sql::AggFunc::kNone) {
        values.push_back(key.ValueAt(group_index_of(item.column)));
        continue;
      }
      FUZZYDB_ASSIGN_OR_RETURN(
          AggregateResult agg,
          ApplyAggregate(item.agg, state.agg_sets[select_agg]));
      ++select_agg;
      if (agg.value.is_null()) {
        dropped = true;
        break;
      }
      values.push_back(std::move(agg.value));
      degree = std::min(degree, agg.degree);
    }
    if (dropped || degree <= 0.0) continue;
    FUZZYDB_RETURN_IF_ERROR(result.Append(Tuple(std::move(values), degree)));
  }

  result.EliminateDuplicates(query.with_threshold);
  return result;
}

Result<double> NaiveEvaluator::PredicateDegree(
    const sql::BoundPredicate& pred, Frames* frames) {
  if (pred.kind == sql::Predicate::Kind::kCompare) {
    return ComparisonDegree(pred, *frames, cpu_);
  }

  // Subquery predicate: re-evaluate the inner block against the current
  // outer tuples -- the naive T(r) of the paper.
  if (cpu_ != nullptr) ++cpu_->subquery_evaluations;
  FUZZYDB_ASSIGN_OR_RETURN(Relation t,
                           EvaluateBlock(*pred.subquery, frames));

  if (pred.kind == sql::Predicate::Kind::kExists) {
    // d(EXISTS T) = the possibility that T is non-empty: the highest
    // membership degree among T's tuples.
    double d = 0.0;
    for (const Tuple& z : t.tuples()) d = std::max(d, z.degree());
    return pred.negated ? 1.0 - d : d;
  }

  const Value& v = OperandValue(pred.lhs, *frames);

  switch (pred.kind) {
    case sql::Predicate::Kind::kIn: {
      const double d = InDegree(v, t, cpu_);
      return pred.negated ? 1.0 - d : d;
    }
    case sql::Predicate::Kind::kQuantified:
      return pred.quantifier == sql::Predicate::Quantifier::kAll
                 ? AllDegree(v, pred.op, t, cpu_)
                 : SomeDegree(v, pred.op, t, cpu_);
    case sql::Predicate::Kind::kAggCompare: {
      if (t.Empty()) return 0.0;  // A(r) is NULL
      if (cpu_ != nullptr) ++cpu_->degree_evaluations;
      return std::min(t.TupleAt(0).degree(),
                      v.Compare(pred.op, t.TupleAt(0).ValueAt(0)));
    }
    case sql::Predicate::Kind::kCompare:
    case sql::Predicate::Kind::kExists:  // handled above
      break;
  }
  return Status::Internal("unhandled predicate kind");
}

}  // namespace fuzzydb
