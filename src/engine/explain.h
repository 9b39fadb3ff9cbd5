// Textual plan descriptions (EXPLAIN).
//
// Describes how the unnesting evaluator would execute a bound query:
// its classified type, the theorem it instantiates or the reason it runs
// naively (the evaluator's own ClassifyQuery decision), the merge keys,
// and the residual predicates. Only operators that run are named: a
// naive plan re-evaluates each subquery per outer tuple, and an unnested
// plan under WITH D >= theta lists where theta cuts work. Purely
// informational.
#ifndef FUZZYDB_ENGINE_EXPLAIN_H_
#define FUZZYDB_ENGINE_EXPLAIN_H_

#include <string>

#include "engine/classifier.h"
#include "sql/binder.h"

namespace fuzzydb {

/// A multi-line, indented description of the chosen strategy.
std::string DescribePlan(const sql::BoundQuery& query);

}  // namespace fuzzydb

#endif  // FUZZYDB_ENGINE_EXPLAIN_H_
