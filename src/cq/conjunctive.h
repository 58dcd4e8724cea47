// Conjunctive queries with regular path expressions (paper §VII).
//
//   CQ: q(X) :- Y1 r1 Z1, ..., Yn rn Zn
//
// Concrete syntax accepted by ParseConjunctiveQuery:
//
//   q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3
//
// `Root` is the special variable bound to the document root.  The atom
// graph must be a tree rooted at Root (paper §VII).  Projected on one head
// variable H, such a query is an rpeq, so CompileConjunctive translates it
// into one rpeq per head and the query runs as a SpexEngine population
// (their shared steps merge by CSE):
//   * the rpeq walks H's chain of atoms from Root;
//   * every variable on the chain, and H itself, is qualified first by its
//     branches that lead to no head variable, then by its head-path siblings
//     (conjunctive semantics for multi-head queries), each branch's whole
//     subtree folded into nested qualifiers;
//   * a qualifier on Root is written ()[q].
// For the example above this yields _*.a[b].c.  The results equal those of
// the network of Fig. 16's translation T.
//
// Restrictions (as in the paper): identity-based joins (a variable reachable
// via two distinct paths) are future work in the paper and rejected here
// with an error, except joins of Root paths, which desugar to '&'.

#ifndef SPEX_CQ_CONJUNCTIVE_H_
#define SPEX_CQ_CONJUNCTIVE_H_

#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "rpeq/ast.h"
#include "spex/engine.h"

namespace spex {

struct ConjunctiveAtom {
  std::string source;  // Y
  ExprPtr path;        // r
  std::string target;  // Z
};

struct ConjunctiveQuery {
  std::string name;               // q
  std::vector<std::string> head;  // head variables X
  std::vector<ConjunctiveAtom> atoms;

  std::string ToString() const;
};

struct CqParseResult {
  std::unique_ptr<ConjunctiveQuery> query;
  std::string error;
  bool ok() const { return query != nullptr; }
};

// Parses the concrete syntax above.
CqParseResult ParseConjunctiveQuery(std::string_view input);

// Parses or aborts.
std::unique_ptr<ConjunctiveQuery> MustParseConjunctiveQuery(
    std::string_view input);

// Translates `query` into one rpeq per head variable, in head order.
// kMalformedInput when the atom graph is not a tree rooted at Root (general
// identity join, undefined or unreachable variable, Root as head).
StatusOr<std::vector<ExprPtr>> CompileConjunctive(
    const ConjunctiveQuery& query);

// One-shot convenience: evaluates a conjunctive query over an event stream
// as one SpexEngine population; returns, per head variable, the serialized
// result fragments.
std::vector<std::vector<std::string>> EvaluateConjunctive(
    const ConjunctiveQuery& query, const std::vector<StreamEvent>& events,
    std::string* error = nullptr);

}  // namespace spex

#endif  // SPEX_CQ_CONJUNCTIVE_H_
