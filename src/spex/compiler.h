// Translation of rpeq expressions into SPEX networks (paper §III.9,
// denotational semantics C of Fig. 11).  The translation is compositional
// and runs in time linear in the size of the expression (Lemma V.1); the
// resulting network degree is likewise linear.

#ifndef SPEX_SPEX_COMPILER_H_
#define SPEX_SPEX_COMPILER_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "rpeq/ast.h"
#include "spex/network.h"
#include "spex/output_transducer.h"

namespace spex {

// Incremental network construction: implements the function C of Fig. 11
// plus the plumbing (IN source, OU sinks, splits) needed by the plain-rpeq
// front end and the conjunctive-query translation T of Fig. 16.
class NetworkBuilder {
 public:
  // Both pointers must outlive the builder and the built network.
  NetworkBuilder(Network* network, RunContext* context);

  // Adds the input transducer; returns its output tape.  `prov`, when
  // given, becomes the node's query provenance (typically the whole query).
  int AddInput(const Expr* prov = nullptr);
  int input_node() const { return input_node_; }

  // C[expr]: extends the network reading from `in_tape`; returns the tape
  // carrying the construct's output.  Every node added is stamped with the
  // provenance of the sub-expression it implements (Expr::span).
  int CompileExpr(const Expr& expr, int in_tape);

  // C[[q]]: wraps `q` as a qualifier (VC ; SP ; C[q] ; VF+ ; VD ; JO).
  int CompileQualifier(const Expr& q, int in_tape);

  // Adds a split reading `in_tape`; returns its two output tapes.
  std::pair<int, int> AddSplit(int in_tape, const Expr* prov = nullptr);

  // Attaches an output transducer (sink) to `in_tape`.
  OutputTransducer* AddOutput(int in_tape, ResultSink* sink,
                              const Expr* prov = nullptr);

 private:
  int AddUnary(std::unique_ptr<Transducer> t, int in_tape, const Expr* prov);
  int AddJoin(int left, int right, const Expr* prov);
  // Stamps `prov`'s span and concrete syntax on the most recently added
  // node (no-op when prov is null, e.g. hand-built multi-query plumbing).
  void NoteProvenance(int node, const Expr* prov);

  Network* network_;
  RunContext* context_;
  int input_node_ = -1;
  uint32_t next_qualifier_id_ = 0;
  int qualifier_body_depth_ = 0;
};

// A compiled network: the DAG plus handles to its source and sinks.
struct CompiledNetwork {
  Network network;
  int input_node = -1;  // the IN transducer (inject here)
  // One output transducer per query, in query-id order (owned by
  // `network`).
  std::vector<OutputTransducer*> outputs;
  // True when the network is provably safe for Network::DeliverBatch: no
  // query creates condition variables (no VC/VD/PR nodes), so no transducer
  // reads or writes the global assignment mid-round and every node's output
  // is a function of its per-tape input sequences alone (DESIGN.md §11).
  // Qualifier and preceding-axis queries keep per-event delivery.
  bool batchable = false;
};

// ---------------------------------------------------------------------------
// The hash-consed step DAG (DESIGN.md §14): the one compile path of every
// network, for one query or a population of K.
//
// Each query is decomposed into its step chain — top-level concatenation
// steps *and* qualifier sandwiches (`a[b].c` is the three steps `a`, `[b]`,
// `c`) — and hash-consed into a stream graph keyed by (input stream,
// canonical step text).  Queries whose chains share a canonical step-path
// share its compiled sub-network: identical CH/CL chains, closure loops and
// whole qualifier sandwiches are compiled once, with splits fanning each
// shared stream out to its consumers and one OU collector per query at its
// chain end.  Each step is emitted by NetworkBuilder::CompileExpr or
// CompileQualifier (the Fig. 11 translation), so for K = 1 the network is
// exactly IN -> C[query] -> OU.
class StepGraph {
 public:
  StepGraph();

  // Interns `query`'s step chain and returns its query id (registration
  // order).  The graph borrows `query`: it must outlive the graph.
  int Add(const Expr& query);

  int query_count() const { return static_cast<int>(queries_.size()); }
  const Expr& query(int id) const { return *queries_[id]; }

  // Builds the network: IN, one sub-network per stream, and an OU per query
  // delivering to sinks[id] (one sink per query).  With one query, IN and OU
  // carry the whole query's provenance.  Reads the graph only, so one graph
  // may be compiled concurrently into many contexts.
  CompiledNetwork Compile(const std::vector<ResultSink*>& sinks,
                          RunContext* context) const;

  // The degree the queries would have as separate networks (one trial
  // compile per query) — the baseline of the §IX sharing win.
  int NaiveDegree() const;

 private:
  // One hash-consed logical stream: the output of `step` applied to its
  // parent stream.  A child's id is always greater than its parent's, so
  // ascending id order is a valid (topological) compile order.
  struct Stream {
    const Expr* step = nullptr;  // into a query; null for the root (IN)
    bool is_qualifier = false;   // compile via CompileQualifier
    std::vector<int> children;    // child stream ids, creation order
    std::vector<int> query_ends;  // queries whose chain ends here
  };

  std::vector<const Expr*> queries_;
  std::vector<Stream> streams_;  // [0] is the root stream (the IN tape)
  std::map<std::pair<int, std::string>, int> memo_;
  bool batchable_ = true;
};

// ---------------------------------------------------------------------------
// Template / instance split (concurrent runtime, DESIGN.md §9/§14).
//
// A QueryTemplate is the immutable, shareable artifact of admitting a query
// population of K >= 1 slots (a single query is K = 1): every member
// parsed, validated and canonicalized once, deduplicated into sorted
// canonical slots, interned into one StepGraph and trial-compiled for its
// degrees.  Instantiation (SpexEngine's template constructors) only re-runs
// the linear-time translation of Lemma V.1 against a fresh per-run context
// — cheap enough to do per session, which is what keeps every run's
// transducer state, symbol table and formula arena private to the worker
// thread that owns the session (see base/thread_check.h).  A template holds
// no run state, so one instance may be shared, via shared_ptr, across any
// number of threads; runtime/query_cache.h caches it under digest().
class QueryTemplate {
 public:
  // One-slot template of `query` (deep copy).  Returns null and fills
  // *error when the query violates the compile-time restrictions of the
  // extended language (see ValidateQuery).
  static std::shared_ptr<const QueryTemplate> Build(const Expr& query,
                                                    std::string* error);
  // Parses, validates and canonicalizes every query.  kMalformedInput names
  // the first offending query.  Duplicate canonical texts collapse into one
  // slot (their matches are identical by definition).
  static StatusOr<std::shared_ptr<const QueryTemplate>> Build(
      const std::vector<std::string>& query_texts);

  // The cache key of `query_texts` — the digest Build would give them —
  // without the trial compile.  Sorted-canonical-set FNV-1a, so spelling
  // variants and registration order fold onto one key.
  static StatusOr<std::string> CanonicalDigest(
      const std::vector<std::string>& query_texts);
  // The digest of a one-slot template with this canonical text.
  static std::string DigestOf(const std::string& canonical_text);

  // Number of queries handed to Build (before dedup).
  int input_count() const { return static_cast<int>(input_to_slot_.size()); }
  // Distinct canonical queries, in sorted canonical order.
  int slot_count() const { return static_cast<int>(slot_texts_.size()); }
  // Which slot Build's i-th input query landed in.
  int slot_of(int input_index) const { return input_to_slot_[input_index]; }
  const Expr& slot_expr(int slot) const { return *slot_exprs_[slot]; }
  // Round-trip concrete syntax: any two query strings parsing to
  // structurally equal ASTs share it.
  const std::string& slot_text(int slot) const { return slot_texts_[slot]; }

  // FNV-1a 64-bit hex digest over the sorted canonical texts.
  const std::string& digest() const { return digest_; }

  // Degree of the instantiated network (Def. 3 degree + IN/OU + splits),
  // and the sum of the slots' degrees as separate networks, from trial
  // compiles at Build time — plan properties for cache introspection and
  // admission control before any run exists.
  int shared_degree() const { return shared_degree_; }
  int naive_degree() const { return naive_degree_; }

  // The interned slots (query id i == slot i).
  const StepGraph& graph() const { return graph_; }

 private:
  QueryTemplate() = default;
  // Interns the slots and trial-compiles the degrees.
  void Seal();

  std::vector<ExprPtr> slot_exprs_;      // sorted canonical order
  std::vector<std::string> slot_texts_;  // sorted canonical texts
  std::vector<int> input_to_slot_;
  std::string digest_;
  StepGraph graph_;
  int shared_degree_ = 0;
  int naive_degree_ = 0;
};

// Builds the SPEX network IN -> C[expr] -> OU: the one-query call of
// StepGraph.  `context` provides the variable allocator, options and the
// global assignment; it must outlive the returned network, and `expr` must
// outlive the call.  Results are delivered to `sink`.
CompiledNetwork CompileToNetwork(const Expr& expr, ResultSink* sink,
                                 RunContext* context);

// Checks the compile-time restrictions of the extended language: inside a
// qualifier body, a preceding step (`<<label`) may only appear in tail
// position and may not itself carry qualifiers (the body match must be the
// structural fact "some matching element closed before the context", which
// is what the evidence-mode preceding transducer provides).  Returns true
// if `expr` compiles; otherwise fills *error.
bool ValidateQuery(const Expr& expr, std::string* error);

}  // namespace spex

#endif  // SPEX_SPEX_COMPILER_H_
