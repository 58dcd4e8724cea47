// Multi-query evaluation with common-subexpression sharing — the paper's §IX
// outlook ("A single transducer network can be used for processing several
// queries having common subparts.  Such a multi-query processor could be a
// corner stone of efficient XSLT and XQuery implementations") and the
// YFilter-style sharing discussed in §VIII, generalized from prefix tries to
// a merged DAG (DESIGN.md §14).
//
// There is one engine: SpexEngine (spex/engine.h) over the hash-consed step
// DAG of StepGraph (spex/compiler.h), with one output collector per query —
// a single query is the population of one — and one template type,
// QueryTemplate.  The names below are kept only so the wire benchmark
// (wirebench/) and the existing multi-query batteries build unchanged; new
// code names SpexEngine and QueryTemplate.

#ifndef SPEX_SPEX_MULTI_QUERY_H_
#define SPEX_SPEX_MULTI_QUERY_H_

#include "spex/compiler.h"
#include "spex/engine.h"

namespace spex {

// Kept only for the wire benchmark and the existing batteries: SpexEngine.
using MultiQueryEngine = SpexEngine;
// Kept only for the wire benchmark and the existing batteries: QueryTemplate.
using MultiQueryTemplate = QueryTemplate;

}  // namespace spex

#endif  // SPEX_SPEX_MULTI_QUERY_H_
