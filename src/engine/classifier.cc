#include "engine/classifier.h"

#include <algorithm>
#include <iterator>

namespace fuzzydb {

namespace {

using sql::BoundPredicate;
using sql::BoundQuery;
using sql::Predicate;

/// A comparison predicate with exactly one side referencing an enclosing
/// block (up > 0) and the other side local or constant.
bool IsCorrelationPredicate(const BoundPredicate& pred) {
  if (pred.kind != Predicate::Kind::kCompare) return false;
  const bool lhs_outer = pred.lhs.is_column && pred.lhs.column.up > 0;
  const bool rhs_outer = pred.rhs.is_column && pred.rhs.column.up > 0;
  return lhs_outer != rhs_outer;
}

/// The unnested plans scan the outer block's one table and project
/// plain columns of it.
NaiveReason OuterBlockReason(const BoundQuery& block) {
  if (!block.group_by.empty()) return NaiveReason::kOuterGroupBy;
  for (const auto& item : block.select) {
    if (item.agg != sql::AggFunc::kNone) return NaiveReason::kOuterAggregate;
  }
  if (block.tables.size() != 1) return NaiveReason::kOuterTables;
  return NaiveReason::kNone;
}

/// The unnested plans filter an inner block's one table by its local
/// predicates. An IN-family link runs the block's own WITH threshold as
/// a mask in its pair fold (`masks_with`); an aggregate link or a chain
/// level has no such mask, since there WITH thresholds the aggregate's
/// degree or the level's projected values, not single inner tuples.
NaiveReason InnerBlockReason(const BoundQuery& block, bool masks_with) {
  if (block.tables.size() != 1) return NaiveReason::kInnerTables;
  if (!block.group_by.empty()) return NaiveReason::kInnerGroupBy;
  if (!masks_with && block.has_with && block.with_threshold > 0.0) {
    return NaiveReason::kInnerWith;
  }
  return NaiveReason::kNone;
}

/// The plans key a link on a column of the block the predicate sits in.
bool LinksOnOwnColumn(const BoundPredicate& pred) {
  return pred.lhs.is_column && pred.lhs.column.up == 0;
}

/// The 2-level type of a decomposed subquery predicate.
QueryType TwoLevelType(const LinkShape& shape) {
  const bool correlated = !shape.correlations.empty();
  const BoundPredicate& pred = *shape.pred;
  switch (pred.kind) {
    case Predicate::Kind::kIn:
      if (pred.negated) {
        return correlated ? QueryType::kTypeJX : QueryType::kTypeNX;
      }
      return correlated ? QueryType::kTypeJ : QueryType::kTypeN;
    case Predicate::Kind::kAggCompare:
      return correlated ? QueryType::kTypeJA : QueryType::kTypeA;
    case Predicate::Kind::kQuantified:
      if (pred.quantifier == Predicate::Quantifier::kAll) {
        return correlated ? QueryType::kTypeJALL : QueryType::kTypeALL;
      }
      return correlated ? QueryType::kTypeJSOME : QueryType::kTypeSOME;
    case Predicate::Kind::kExists:
      return correlated ? QueryType::kTypeJEXISTS : QueryType::kTypeEXISTS;
    case Predicate::Kind::kCompare:
      break;
  }
  return QueryType::kGeneral;
}

/// Walks a chain query (Section 8) from the outer block down into out's
/// chain fields: every block has at most one subquery predicate, a
/// non-negated IN, and otherwise local or correlation comparisons.
/// False when the query is not a chain.
bool WalkChain(const BoundQuery& query, QueryClass* out) {
  for (const BoundQuery* block = &query; block != nullptr;) {
    out->chain_blocks.push_back(block);
    out->chain_correlations.emplace_back();
    const BoundPredicate* link = nullptr;
    for (const BoundPredicate& pred : block->predicates) {
      if (pred.IsLocal()) continue;
      if (pred.subquery == nullptr) {
        if (!IsCorrelationPredicate(pred)) return false;
        out->chain_correlations.back().push_back(&pred);
      } else if (link != nullptr || pred.kind != Predicate::Kind::kIn ||
                 pred.negated) {
        return false;
      } else {
        link = &pred;
      }
    }
    if (link != nullptr) out->chain_links.push_back(link);
    block = link == nullptr ? nullptr : link->subquery.get();
  }
  return true;
}

}  // namespace

const char* QueryTypeName(QueryType type) {
  switch (type) {
    case QueryType::kFlat:
      return "FLAT";
    case QueryType::kTypeN:
      return "N";
    case QueryType::kTypeJ:
      return "J";
    case QueryType::kTypeNX:
      return "NX";
    case QueryType::kTypeJX:
      return "JX";
    case QueryType::kTypeA:
      return "A";
    case QueryType::kTypeJA:
      return "JA";
    case QueryType::kTypeALL:
      return "ALL";
    case QueryType::kTypeJALL:
      return "JALL";
    case QueryType::kTypeSOME:
      return "SOME";
    case QueryType::kTypeJSOME:
      return "JSOME";
    case QueryType::kTypeEXISTS:
      return "EXISTS";
    case QueryType::kTypeJEXISTS:
      return "JEXISTS";
    case QueryType::kTypeMulti:
      return "MULTI";
    case QueryType::kChain:
      return "CHAIN";
    case QueryType::kGeneral:
      return "GENERAL";
  }
  return "?";
}

const char* NaiveReasonText(NaiveReason reason) {
  static constexpr const char* kText[] = {
      "none",
      "flat query",
      "outer block selects an aggregate",
      "outer block has GROUP BY",
      "outer block has several tables",
      "inner block has several tables",
      "inner block has GROUP BY",
      "inner block has a WITH threshold",
      "linking operand is not an outer column",
      "correlation past the enclosing block",
      "JA with other than one correlation",
      "outside the taxonomy",
  };
  static_assert(std::size(kText) ==
                static_cast<size_t>(NaiveReason::kOutsideTaxonomy) + 1);
  return kText[static_cast<size_t>(reason)];
}

NaiveReason DecomposeLink(const BoundPredicate& pred, LinkShape* shape) {
  *shape = LinkShape{};
  shape->pred = &pred;
  shape->inner = pred.subquery.get();
  const BoundQuery& inner = *shape->inner;
  bool deep = false;
  for (const BoundPredicate& inner_pred : inner.predicates) {
    if (inner_pred.IsLocal()) continue;
    if (!IsCorrelationPredicate(inner_pred)) {
      return NaiveReason::kOutsideTaxonomy;
    }
    // One side is outer; the other side's level reads 0.
    deep = deep || std::max(inner_pred.lhs.column.up,
                            inner_pred.rhs.column.up) != 1;
    shape->correlations.push_back(&inner_pred);
  }
  shape->is_aggregate = pred.kind == Predicate::Kind::kAggCompare;
  shape->negate_link = pred.kind == Predicate::Kind::kQuantified &&
                       pred.quantifier == Predicate::Quantifier::kAll;
  shape->negate_result = shape->negate_link || pred.negated;
  shape->has_link_columns = pred.kind != Predicate::Kind::kExists;
  if (shape->has_link_columns) {
    shape->outer_link_col = pred.lhs.column.column;
    shape->inner_link_col = inner.select[0].column.column;
    shape->link_op =
        pred.kind == Predicate::Kind::kIn ? CompareOp::kEq : pred.op;
  }

  const NaiveReason block_reason =
      InnerBlockReason(inner, /*masks_with=*/!shape->is_aggregate);
  if (block_reason != NaiveReason::kNone) return block_reason;
  if (shape->has_link_columns && !LinksOnOwnColumn(pred)) {
    return NaiveReason::kLinkOperand;
  }
  if (deep) return NaiveReason::kDeepCorrelation;
  // The T1/T2 pipeline groups S by the one correlated column R.U.
  if (shape->is_aggregate && shape->correlations.size() > 1) {
    return NaiveReason::kJaCorrelations;
  }
  return NaiveReason::kNone;
}

QueryClass ClassifyQuery(const BoundQuery& query) {
  QueryClass out;
  bool two_level = true;
  for (const BoundPredicate& pred : query.predicates) {
    if (pred.subquery == nullptr) continue;
    out.links.emplace_back().pred = &pred;
    two_level = two_level && pred.subquery->NestingDepth() == 1;
  }
  if (out.links.empty()) {
    out.type = QueryType::kFlat;
    out.reason = NaiveReason::kFlat;
    return out;
  }
  // The first reason found, outer block first, decides.
  NaiveReason reason = OuterBlockReason(query);
  const auto note = [&reason](NaiveReason found) {
    if (reason == NaiveReason::kNone) reason = found;
  };

  if (two_level) {
    for (LinkShape& link : out.links) {
      const NaiveReason found = DecomposeLink(*link.pred, &link);
      if (found == NaiveReason::kOutsideTaxonomy) return QueryClass();
      note(found);
    }
    out.type = out.links.size() == 1 ? TwoLevelType(out.links[0])
                                     : QueryType::kTypeMulti;
    out.reason = reason;
    return out;
  }

  // Deeper nesting: chain queries.
  out.links.clear();
  if (!WalkChain(query, &out)) return QueryClass();
  for (size_t k = 1; k < out.chain_blocks.size(); ++k) {
    if (!LinksOnOwnColumn(*out.chain_links[k - 1])) {
      note(NaiveReason::kLinkOperand);
    }
    note(InnerBlockReason(*out.chain_blocks[k], /*masks_with=*/false));
  }
  out.type = QueryType::kChain;
  out.reason = reason;
  return out;
}

QueryType Classify(const BoundQuery& query) {
  return ClassifyQuery(query).type;
}

}  // namespace fuzzydb
