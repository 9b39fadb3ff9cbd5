#include "engine/explain.h"

#include <sstream>

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

void DescribeBlock(const BoundQuery& block, int depth, std::ostringstream* out);

void DescribePredicate(const BoundQuery& block, const BoundPredicate& pred,
                       int depth, std::ostringstream* out) {
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
  *out << " on";
  if (pred.lhs.is_column) {
    *out << " " << ColumnName(block, pred.lhs.column);
  }
  *out << "\n";
  DescribeBlock(*pred.subquery, depth + 1, out);
}

void DescribeBlock(const BoundQuery& block, int depth,
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
    DescribePredicate(block, pred, depth, out);
  }
  if (block.has_with) {
    *out << indent << "threshold: WITH D >= " << block.with_threshold << "\n";
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
  DescribeBlock(query, 1, &out);
  if (!query.order_by.empty()) {
    out << "  order by: " << query.order_by.size() << " key(s)\n";
  }
  return out.str();
}

}  // namespace fuzzydb
