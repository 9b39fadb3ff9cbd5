// Distinct bindings: one side of a subquery link reduced to one row per
// bit-identical tuple of the columns its pair terms read.
//
// An IN-family pair term min(d_S(s), d(corr(r, s)), f(d(r.Y op s.Z)))
// reads r and s only through their binding columns: the link column and
// each correlation's column on that side. Every outer row of one binding
// therefore gets the same m(r). For the inner tuples s_1..s_k of one
// binding the terms c = d(corr) and f(l) are common, min is monotone in
// d_S(s) and max does not depend on order, so
//     max_i min(d_S(s_i), c, f(l)) = min(max_i d_S(s_i), c, f(l)).
// A link thus pairs the outer's distinct bindings with the inner's, each
// inner binding carrying its rows' max degree, and reads m(r) back per
// row: the paper's unnested plans join such intermediate relations (T1
// of Theorem 6.1 is the outer's distinct correlation values), not base
// rows. The inner WITH mask (a lane below z drops to 0) and JA's
// AppendOrMax are monotone in the lane degree too, so they factor the
// same way.
//
// Identity is bitwise: two fuzzy values bind alike only when all four
// corners have the same bits (so a -0.0 corner and a 0.0 corner do not),
// two strings when they are equal, and NULLs with each other. A
// representative then feeds every pair term exactly the bits of each row
// it stands for, so the answer is bit for bit the row-wise one.
#ifndef FUZZYDB_ENGINE_DISTINCT_BINDINGS_H_
#define FUZZYDB_ENGINE_DISTINCT_BINDINGS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/classifier.h"
#include "engine/exec_stats.h"
#include "engine/pair_join.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "relational/relation.h"

namespace fuzzydb {

/// The columns a link's pair terms read on each side, without repeats:
/// the link column (the outer one only for the IN family -- JA's
/// back-join reads R.Y per row), then each correlation's column on that
/// side.
struct LinkBindings {
  std::vector<size_t> outer;
  std::vector<size_t> inner;
};

LinkBindings BindingColumnsOf(const LinkShape& shape);

/// One side of a link reduced to its distinct bindings.
struct DistinctBindings {
  /// One row per distinct binding, in first-occurrence order: the
  /// binding's first row, carrying the max degree of its rows.
  std::vector<FT> rows;
  /// Input row i's binding is rows[binding_of[i]].
  std::vector<uint32_t> binding_of;
};

/// Reduces `rows`, filtered from `relation`, to their distinct bindings
/// on columns `cols` (bitwise identity, see above) in one `distinct`
/// span, "distinct [<relation> on <columns>]" with rows in->out. One
/// serial hash pass in row order, so the representatives and their
/// order are the same at every thread count; `ctx` only reports
/// progress. The representatives reuse the storage of `rows`.
DistinctBindings DistinctOn(std::vector<FT> rows,
                            const std::vector<size_t>& cols,
                            const Relation& relation,
                            const ParallelContext& ctx, CpuStats* cpu,
                            ExecTrace* trace);

}  // namespace fuzzydb

#endif  // FUZZYDB_ENGINE_DISTINCT_BINDINGS_H_
