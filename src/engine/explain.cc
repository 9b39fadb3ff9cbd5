#include "engine/explain.h"

#include <sstream>

#include "common/string_util.h"
#include "engine/distinct_bindings.h"

namespace fuzzydb {

namespace {

using sql::BoundPredicate;
using sql::BoundQuery;
using sql::Predicate;

const char* TheoremFor(QueryType type) {
  switch (type) {
    case QueryType::kTypeN:
      return "Theorem 4.1";
    case QueryType::kTypeJ:
      return "Theorem 4.2";
    case QueryType::kTypeNX:
    case QueryType::kTypeJX:
      return "Theorem 5.1";
    case QueryType::kTypeA:
    case QueryType::kTypeJA:
      return "Theorem 6.1";
    case QueryType::kTypeALL:
    case QueryType::kTypeJALL:
      return "Theorem 7.1";
    case QueryType::kTypeSOME:
    case QueryType::kTypeJSOME:
    case QueryType::kTypeEXISTS:
    case QueryType::kTypeJEXISTS:
      return "Section 7 remark";
    case QueryType::kChain:
      return "Theorem 8.1";
    case QueryType::kTypeMulti:
      return "per-predicate plans, combined by min";
    default:
      return "";
  }
}

std::string ColumnName(const BoundQuery& block, const sql::BoundColumnRef& ref) {
  const auto& table = block.tables[ref.table];
  return table.alias + "." + table.relation->schema().ColumnAt(ref.column).name;
}

/// The link as SQL writes it, for the naive plan's and the cut lines.
std::string LinkKind(const BoundPredicate& pred) {
  switch (pred.kind) {
    case Predicate::Kind::kIn:
      return pred.negated ? "NOT IN" : "IN";
    case Predicate::Kind::kQuantified:
      return std::string(CompareOpName(pred.op)) +
             (pred.quantifier == Predicate::Quantifier::kAll ? " ALL"
                                                             : " SOME");
    case Predicate::Kind::kAggCompare:
      return std::string(CompareOpName(pred.op)) + " " +
             sql::AggFuncName(pred.subquery->select[0].agg);
    case Predicate::Kind::kExists:
      return pred.negated ? "NOT EXISTS" : "EXISTS";
    case Predicate::Kind::kCompare:
      break;
  }
  return "compare";
}

/// " on <outer column>", or "" for EXISTS.
std::string LinkColumn(const BoundQuery& block, const BoundPredicate& pred) {
  return pred.lhs.is_column ? " on " + ColumnName(block, pred.lhs.column)
                            : "";
}

/// True when a correlation of `block` reads an enclosing block.
bool Correlated(const BoundQuery& block) {
  for (const BoundPredicate& pred : block.predicates) {
    if (pred.subquery == nullptr && !pred.IsLocal()) return true;
  }
  return false;
}

/// "pairs distinct (R.Y, R.U) with distinct (S.Z, S.V)": the distinct
/// bindings (distinct_bindings.h) an unnested 2-level link pairs, or ""
/// for a link that pairs nothing (uncorrelated EXISTS, type A).
std::string PairsLine(const BoundQuery& outer, const LinkShape& link) {
  const LinkBindings columns = BindingColumnsOf(link);
  if (columns.outer.empty() && columns.inner.empty()) return "";
  const auto names = [](const BoundQuery& block,
                        const std::vector<size_t>& cols) {
    std::string out = "(";
    for (size_t i = 0; i < cols.size(); ++i) {
      out += (i == 0 ? "" : ", ") + block.tables[0].alias + "." +
             block.tables[0].relation->schema().ColumnAt(cols[i]).name;
    }
    return out + ")";
  };
  return "pairs distinct " + names(outer, columns.outer) + " with distinct " +
         names(*link.inner, columns.inner);
}

/// `links` are the 2-level plan's shapes when `block` is its outer block,
/// else null.
void DescribeBlock(const BoundQuery& block, int depth, bool unnested,
                   const std::vector<LinkShape>* links,
                   std::ostringstream* out);

void DescribePredicate(const BoundQuery& block, const BoundPredicate& pred,
                       int depth, bool unnested,
                       const std::vector<LinkShape>* links,
                       std::ostringstream* out) {
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  if (pred.subquery == nullptr) {
    *out << indent << (pred.IsLocal() ? "filter: " : "correlation: ");
    auto operand_name = [&](const sql::BoundOperand& operand) -> std::string {
      if (!operand.is_column) return operand.constant.ToString();
      if (operand.column.up == 0) return ColumnName(block, operand.column);
      return std::string("outer(") + std::to_string(operand.column.up) + ")";
    };
    *out << operand_name(pred.lhs) << " " << CompareOpName(pred.op) << " "
         << operand_name(pred.rhs) << "\n";
    return;
  }
  *out << indent;
  if (!unnested) {
    *out << "subquery (" << LinkKind(pred) << ")" << LinkColumn(block, pred)
         << ", re-evaluated per outer tuple\n";
    DescribeBlock(*pred.subquery, depth + 1, unnested, nullptr, out);
    return;
  }
  switch (pred.kind) {
    case Predicate::Kind::kIn:
      *out << (pred.negated ? "anti-semijoin (NOT IN)" : "semijoin (IN)");
      break;
    case Predicate::Kind::kQuantified:
      *out << (pred.quantifier == Predicate::Quantifier::kAll
                   ? "group-by-min (op ALL)"
                   : "semijoin (op SOME)");
      break;
    case Predicate::Kind::kAggCompare:
      *out << "aggregate pipeline (T1/T2"
           << (pred.subquery->select[0].agg == sql::AggFunc::kCount
                   ? " + left outer join for COUNT"
                   : "")
           << ")";
      break;
    case Predicate::Kind::kExists:
      *out << (pred.negated ? "anti-semijoin (NOT EXISTS)"
                            : "semijoin (EXISTS)");
      break;
    case Predicate::Kind::kCompare:
      break;
  }
  *out << LinkColumn(block, pred) << "\n";
  for (size_t i = 0; links != nullptr && i < links->size(); ++i) {
    if ((*links)[i].pred != &pred) continue;
    const std::string pairs = PairsLine(block, (*links)[i]);
    if (!pairs.empty()) *out << indent << "  " << pairs << "\n";
  }
  DescribeBlock(*pred.subquery, depth + 1, unnested, nullptr, out);
}

void DescribeBlock(const BoundQuery& block, int depth, bool unnested,
                   const std::vector<LinkShape>* links,
                   std::ostringstream* out) {
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  *out << indent << "scan";
  for (const auto& table : block.tables) {
    *out << " " << table.relation->name();
    if (table.alias != table.relation->name()) *out << " as " << table.alias;
    *out << " (" << table.relation->NumTuples() << " tuples)";
  }
  *out << "\n";
  for (const BoundPredicate& pred : block.predicates) {
    DescribePredicate(block, pred, depth, unnested, links, out);
  }
  if (!block.has_with) return;
  *out << indent << "threshold: WITH D >= " << block.with_threshold;
  // Unnested, an inner block's own WITH belongs to an IN-family link.
  if (unnested && depth > 1 && block.with_threshold > 0.0) {
    *out << (Correlated(block) ? " -- masks the pair fold after the "
                                 "correlations"
                               : " -- cuts the inner filter");
  }
  *out << "\n";
}

/// True when a keyed PairJoin can window `link` of block `outer`: on an
/// equality link (not ALL), or else on an equality correlation, over
/// FUZZY columns.
bool Windowed(const BoundQuery& outer, const LinkShape& link) {
  const auto fuzzy = [](const BoundQuery& block, size_t column) {
    return block.tables[0].relation->schema().ColumnAt(column).type ==
           ValueType::kFuzzy;
  };
  if (link.has_link_columns && link.link_op == CompareOp::kEq &&
      !link.negate_link && fuzzy(outer, link.outer_link_col) &&
      fuzzy(*link.inner, link.inner_link_col)) {
    return true;
  }
  for (const BoundPredicate* pred : link.correlations) {
    const bool lhs_outer = pred->lhs.is_column && pred->lhs.column.up > 0;
    const sql::BoundOperand& local = lhs_outer ? pred->rhs : pred->lhs;
    const sql::BoundOperand& other = lhs_outer ? pred->lhs : pred->rhs;
    if (pred->op == CompareOp::kEq && local.is_column &&
        fuzzy(*link.inner, local.column.column) &&
        fuzzy(outer, other.column.column)) {
      return true;
    }
  }
  return false;
}

/// Where an unnested plan's WITH threshold theta > 0 cuts work, one line
/// per place, under the outer block's threshold line.
void DescribeCuts(const BoundQuery& query, const QueryClass& plan,
                  std::ostringstream* out) {
  const std::string theta = FormatDouble(query.with_threshold);
  const std::string window = " and windows on " + theta + "-cuts";
  if (plan.type == QueryType::kChain) {
    *out << "    cuts every level's filter [";
    for (size_t k = 0; k < plan.chain_blocks.size(); ++k) {
      *out << (k == 0 ? "" : ", ")
           << plan.chain_blocks[k]->tables[0].relation->name();
    }
    *out << "], each join step's output" << window << "\n";
    return;
  }
  *out << "    cuts the outer filter [" << query.tables[0].relation->name()
       << "]\n";
  for (const LinkShape& link : plan.links) {
    *out << "    " << LinkKind(*link.pred) << LinkColumn(query, *link.pred);
    if (link.is_aggregate || link.negate_result) {
      *out << ": inner kept whole\n";
      continue;
    }
    *out << ": cuts the inner filter ["
         << link.inner->tables[0].relation->name() << "]"
         << (Windowed(query, link) ? window : "") << "\n";
  }
}

}  // namespace

std::string DescribePlan(const sql::BoundQuery& query) {
  std::ostringstream out;
  const QueryClass plan = ClassifyQuery(query);
  out << "plan: type " << QueryTypeName(plan.type);
  if (plan.reason == NaiveReason::kNone) {
    out << " (" << TheoremFor(plan.type) << ")";
  } else {
    out << " -- naive evaluation: " << NaiveReasonText(plan.reason);
  }
  out << "\n";
  const bool unnested = plan.reason == NaiveReason::kNone;
  DescribeBlock(query, 1, unnested, unnested ? &plan.links : nullptr, &out);
  if (unnested && query.with_threshold > 0.0) {
    DescribeCuts(query, plan, &out);
  }
  if (!query.order_by.empty()) {
    out << "  order by: " << query.order_by.size() << " key(s)\n";
  }
  return out.str();
}

}  // namespace fuzzydb
