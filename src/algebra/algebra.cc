#include "algebra/algebra.h"

#include <algorithm>
#include <map>

namespace fuzzydb {
namespace algebra {

namespace {

/// Combines two schemas for products and joins, qualifying collisions.
Schema ConcatSchemas(const Schema& left, const Schema& right) {
  Schema combined;
  for (const Column& column : left.columns()) {
    std::string name = column.name;
    for (int n = 2; combined.Has(name); ++n) {
      name = column.name + "_" + std::to_string(n);
    }
    (void)combined.AddColumn(Column{name, column.type});
  }
  for (const Column& column : right.columns()) {
    std::string name = column.name;
    for (int n = 2; combined.Has(name); ++n) {
      name = column.name + "_" + std::to_string(n);
    }
    (void)combined.AddColumn(Column{name, column.type});
  }
  return combined;
}

Status CheckArity(const Relation& left, const Relation& right,
                  const char* op) {
  if (left.schema().NumColumns() != right.schema().NumColumns()) {
    return Status::InvalidArgument(
        std::string(op) + " requires relations of equal arity (" +
        std::to_string(left.schema().NumColumns()) + " vs " +
        std::to_string(right.schema().NumColumns()) + ")");
  }
  return Status::OK();
}

}  // namespace

TuplePredicate ColumnCompare(size_t column, CompareOp op, Value constant) {
  return [column, op, constant = std::move(constant)](const Tuple& t) {
    return t.ValueAt(column).Compare(op, constant);
  };
}

PairPredicate ColumnsCompare(size_t left_column, CompareOp op,
                             size_t right_column) {
  return [left_column, op, right_column](const Tuple& l, const Tuple& r) {
    return l.ValueAt(left_column).Compare(op, r.ValueAt(right_column));
  };
}

Relation Select(const Relation& input, const TuplePredicate& predicate) {
  Relation out(input.name(), input.schema());
  for (const Tuple& t : input.tuples()) {
    const double d = std::min(t.degree(), predicate(t));
    if (d > 0.0) {
      Tuple copy = t;
      copy.set_degree(d);
      (void)out.Append(std::move(copy));
    }
  }
  return out;
}

Result<Relation> Project(const Relation& input,
                         const std::vector<size_t>& columns) {
  Schema schema;
  for (size_t c : columns) {
    if (c >= input.schema().NumColumns()) {
      return Status::OutOfRange("projection column " + std::to_string(c) +
                                " out of range");
    }
    std::string name = input.schema().ColumnAt(c).name;
    for (int n = 2; schema.Has(name); ++n) {
      name = input.schema().ColumnAt(c).name + "_" + std::to_string(n);
    }
    (void)schema.AddColumn(Column{name, input.schema().ColumnAt(c).type});
  }
  Relation out(input.name(), schema);
  for (const Tuple& t : input.tuples()) {
    (void)out.Append(t.Project(columns));
  }
  out.EliminateDuplicates();
  return out;
}

Relation CartesianProduct(const Relation& left, const Relation& right) {
  Relation out(left.name() + "_x_" + right.name(),
               ConcatSchemas(left.schema(), right.schema()));
  for (const Tuple& l : left.tuples()) {
    for (const Tuple& r : right.tuples()) {
      (void)out.Append(l.Concat(r));
    }
  }
  return out;
}

Relation ThetaJoin(const Relation& left, const Relation& right,
                   const PairPredicate& predicate) {
  Relation out(left.name() + "_join_" + right.name(),
               ConcatSchemas(left.schema(), right.schema()));
  for (const Tuple& l : left.tuples()) {
    for (const Tuple& r : right.tuples()) {
      const double d =
          std::min({l.degree(), r.degree(), predicate(l, r)});
      if (d > 0.0) {
        Tuple joined = l.Concat(r);
        joined.set_degree(d);
        (void)out.Append(std::move(joined));
      }
    }
  }
  return out;
}

Result<Relation> FuzzyEquiJoin(const Relation& left, size_t left_column,
                               const Relation& right, size_t right_column) {
  if (left_column >= left.schema().NumColumns() ||
      right_column >= right.schema().NumColumns()) {
    return Status::OutOfRange("join column out of range");
  }
  return ThetaJoin(left, right,
                   ColumnsCompare(left_column, CompareOp::kEq, right_column));
}

Result<Relation> Union(const Relation& left, const Relation& right) {
  FUZZYDB_RETURN_IF_ERROR(CheckArity(left, right, "union"));
  Relation out(left.name() + "_u_" + right.name(), left.schema());
  for (const Tuple& t : left.tuples()) (void)out.Append(t);
  for (const Tuple& t : right.tuples()) (void)out.Append(t);
  out.EliminateDuplicates();  // max degree per identical tuple: fuzzy OR
  return out;
}

Result<Relation> Intersect(const Relation& left, const Relation& right) {
  FUZZYDB_RETURN_IF_ERROR(CheckArity(left, right, "intersection"));
  std::map<Tuple, double, TupleValueLess> degrees;
  for (const Tuple& t : right.tuples()) {
    auto [it, fresh] = degrees.emplace(t, t.degree());
    if (!fresh) it->second = std::max(it->second, t.degree());
  }
  Relation out(left.name() + "_n_" + right.name(), left.schema());
  for (const Tuple& t : left.tuples()) {
    auto it = degrees.find(t);
    if (it == degrees.end()) continue;
    Tuple copy = t;
    copy.set_degree(std::min(t.degree(), it->second));
    FUZZYDB_RETURN_IF_ERROR(out.Append(std::move(copy)));
  }
  out.EliminateDuplicates();
  return out;
}

Result<Relation> Difference(const Relation& left, const Relation& right) {
  FUZZYDB_RETURN_IF_ERROR(CheckArity(left, right, "difference"));
  std::map<Tuple, double, TupleValueLess> degrees;
  for (const Tuple& t : right.tuples()) {
    auto [it, fresh] = degrees.emplace(t, t.degree());
    if (!fresh) it->second = std::max(it->second, t.degree());
  }
  Relation out(left.name() + "_minus_" + right.name(), left.schema());
  for (const Tuple& t : left.tuples()) {
    auto it = degrees.find(t);
    const double other = it == degrees.end() ? 0.0 : it->second;
    const double d = std::min(t.degree(), 1.0 - other);
    if (d > 0.0) {
      Tuple copy = t;
      copy.set_degree(d);
      FUZZYDB_RETURN_IF_ERROR(out.Append(std::move(copy)));
    }
  }
  out.EliminateDuplicates();
  return out;
}

Relation Rename(Relation input, const std::string& name) {
  input.set_name(name);
  return input;
}

}  // namespace algebra
}  // namespace fuzzydb
