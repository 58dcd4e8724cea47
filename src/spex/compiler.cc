#include "spex/compiler.h"

#include <algorithm>

#include "rpeq/parser.h"

#include "spex/child_transducer.h"
#include "spex/closure_transducer.h"
#include "spex/input_transducer.h"
#include "spex/intersect_transducer.h"
#include "spex/order_transducers.h"
#include "spex/qualifier_transducers.h"
#include "spex/split_join_transducers.h"
#include "spex/union_transducer.h"

namespace spex {

NetworkBuilder::NetworkBuilder(Network* network, RunContext* context)
    : network_(network), context_(context) {}

void NetworkBuilder::NoteProvenance(int node, const Expr* prov) {
  if (prov != nullptr) {
    network_->SetProvenance(node, prov->span, prov->ToString());
  }
}

int NetworkBuilder::AddInput(const Expr* prov) {
  input_node_ = network_->AddNode(std::make_unique<InputTransducer>());
  NoteProvenance(input_node_, prov);
  int t0 = network_->NewTape();
  network_->SetProducer(t0, input_node_, 0);
  return t0;
}

int NetworkBuilder::AddUnary(std::unique_ptr<Transducer> t, int in_tape,
                             const Expr* prov) {
  int node = network_->AddNode(std::move(t));
  NoteProvenance(node, prov);
  network_->SetConsumer(in_tape, node, 0);
  int out = network_->NewTape();
  network_->SetProducer(out, node, 0);
  return out;
}

std::pair<int, int> NetworkBuilder::AddSplit(int in_tape, const Expr* prov) {
  int node = network_->AddNode(std::make_unique<SplitTransducer>());
  NoteProvenance(node, prov);
  network_->SetConsumer(in_tape, node, 0);
  int t1 = network_->NewTape();
  int t2 = network_->NewTape();
  network_->SetProducer(t1, node, 0);
  network_->SetProducer(t2, node, 1);
  return {t1, t2};
}

int NetworkBuilder::AddJoin(int left, int right, const Expr* prov) {
  int node = network_->AddNode(std::make_unique<JoinTransducer>());
  NoteProvenance(node, prov);
  network_->SetConsumer(left, node, 0);
  network_->SetConsumer(right, node, 1);
  int out = network_->NewTape();
  network_->SetProducer(out, node, 0);
  return out;
}

OutputTransducer* NetworkBuilder::AddOutput(int in_tape, ResultSink* sink,
                                            const Expr* prov) {
  auto ou = std::make_unique<OutputTransducer>(sink, context_);
  OutputTransducer* raw = ou.get();
  int node = network_->AddNode(std::move(ou));
  NoteProvenance(node, prov);
  network_->SetConsumer(in_tape, node, 0);
  return raw;
}

int NetworkBuilder::CompileExpr(const Expr& e, int in_tape) {
  switch (e.kind) {
    case ExprKind::kEmpty:
      // eps: the identity — the construct's input tape is its output.
      return in_tape;

    case ExprKind::kLabel:
      // C[label] = CH(label)
      return AddUnary(
          std::make_unique<ChildTransducer>(e.label, e.is_wildcard, context_),
          in_tape, &e);

    case ExprKind::kClosure: {
      if (e.is_positive) {
        // C[label+] = CL(label)
        return AddUnary(std::make_unique<ClosureTransducer>(
                            e.label, e.is_wildcard, context_),
                        in_tape, &e);
      }
      // C[label*] = SP ; C[label+] ; JO   (label* == (label+ | eps))
      auto [t1, t2] = AddSplit(in_tape, &e);
      int body = AddUnary(std::make_unique<ClosureTransducer>(
                              e.label, e.is_wildcard, context_),
                          t1, &e);
      return AddJoin(t2, body, &e);
    }

    case ExprKind::kOptional: {
      // C[rpeq?] = SP ; C[rpeq] ; JO
      auto [t1, t2] = AddSplit(in_tape, &e);
      int body = CompileExpr(*e.left, t1);
      return AddJoin(t2, body, &e);
    }

    case ExprKind::kUnion: {
      // C[(r1|r2)] = SP ; C[r1] ; C[r2] ; JO ; UN
      auto [t1, t2] = AddSplit(in_tape, &e);
      int left = CompileExpr(*e.left, t1);
      int right = CompileExpr(*e.right, t2);
      int joined = AddJoin(left, right, &e);
      return AddUnary(std::make_unique<UnionTransducer>(), joined, &e);
    }

    case ExprKind::kIntersect: {
      // C[(r1&r2)] = SP ; C[r1] ; C[r2] ; IS — node-identity join (§I).
      auto [t1, t2] = AddSplit(in_tape, &e);
      int left = CompileExpr(*e.left, t1);
      int right = CompileExpr(*e.right, t2);
      int node = network_->AddNode(std::make_unique<IntersectTransducer>());
      NoteProvenance(node, &e);
      network_->SetConsumer(left, node, 0);
      network_->SetConsumer(right, node, 1);
      int out = network_->NewTape();
      network_->SetProducer(out, node, 0);
      return out;
    }

    case ExprKind::kConcat:
      // C[(r1.r2)] = C[r2] o C[r1]
      return CompileExpr(*e.right, CompileExpr(*e.left, in_tape));

    case ExprKind::kQualified: {
      // C[r1[r2]] = C[[r2]] o C[r1]
      int base = CompileExpr(*e.left, in_tape);
      return CompileQualifier(*e.right, base);
    }

    case ExprKind::kFollowing:
      // >>label : FO(label) — streamed directly (paper §I extension).
      context_->allow_variable_gc = false;
      return AddUnary(std::make_unique<FollowingTransducer>(
                          e.label, e.is_wildcard, context_),
                      in_tape, &e);

    case ExprKind::kPreceding:
      // <<label : PR(label) — speculative matching with future-condition
      // variables (own qualifier-id namespace); evidence mode inside
      // qualifier bodies (see ValidateQuery).
      context_->allow_variable_gc = false;
      return AddUnary(std::make_unique<PrecedingTransducer>(
                          e.label, e.is_wildcard, next_qualifier_id_++,
                          context_,
                          /*evidence_mode=*/qualifier_body_depth_ > 0),
                      in_tape, &e);
  }
  return in_tape;  // unreachable
}

int NetworkBuilder::CompileQualifier(const Expr& q, int in_tape) {
  // C[[q]] = VC(q) ; SP ; C[q] ; VF(q+) ; VD ; JO  (Fig. 11, last rule)
  // The qualifier machinery (VC/SP/VF/VD/JO) carries the body's provenance:
  // it exists to evaluate exactly that sub-expression.
  const uint32_t qid = next_qualifier_id_++;
  // A body containing a following axis can be satisfied after the
  // instance's scope closed: defer the scope-exit invalidation to </$>.
  const bool defer = q.ContainsKind(ExprKind::kFollowing);
  int after_vc = AddUnary(
      std::make_unique<VariableCreatorTransducer>(qid, context_, defer),
      in_tape, &q);
  auto [t1, t2] = AddSplit(after_vc, &q);
  ++qualifier_body_depth_;
  int body = CompileExpr(q, t2);
  --qualifier_body_depth_;
  int filtered =
      AddUnary(std::make_unique<VariableFilterTransducer>(qid,
                                                          /*positive=*/true,
                                                          context_),
               body, &q);
  int determined = AddUnary(
      std::make_unique<VariableDeterminantTransducer>(qid, context_),
      filtered, &q);
  return AddJoin(t1, determined, &q);
}

namespace {

bool ValidateRec(const Expr& e, bool in_body, bool is_tail,
                 std::string* error) {
  switch (e.kind) {
    case ExprKind::kPreceding:
      if (in_body && !is_tail) {
        if (error != nullptr) {
          *error =
              "a preceding step (<<" + std::string(e.is_wildcard ? "_"
                                                                 : e.label) +
              ") inside a qualifier body must be the body's last step";
        }
        return false;
      }
      return true;
    case ExprKind::kConcat:
      return ValidateRec(*e.left, in_body, false, error) &&
             ValidateRec(*e.right, in_body, is_tail, error);
    case ExprKind::kUnion:
      return ValidateRec(*e.left, in_body, is_tail, error) &&
             ValidateRec(*e.right, in_body, is_tail, error);
    case ExprKind::kIntersect:
      // Inside a qualifier body, preceding steps run in evidence mode,
      // which certifies EXISTENCE of a preceding match but not WHICH node
      // matched — combining that with a node-identity join would wrongly
      // pair the evidence with the other branch's node.
      if (in_body && (e.left->ContainsKind(ExprKind::kPreceding) ||
                      e.right->ContainsKind(ExprKind::kPreceding))) {
        if (error != nullptr) {
          *error =
              "a preceding step cannot appear under '&' inside a qualifier "
              "body (the body match's node identity would be lost)";
        }
        return false;
      }
      return ValidateRec(*e.left, in_body, is_tail, error) &&
             ValidateRec(*e.right, in_body, is_tail, error);
    case ExprKind::kOptional:
      return ValidateRec(*e.left, in_body, is_tail, error);
    case ExprKind::kQualified:
      if (in_body && e.left->ContainsKind(ExprKind::kPreceding)) {
        if (error != nullptr) {
          *error =
              "a preceding step inside a qualifier body cannot itself carry "
              "qualifiers";
        }
        return false;
      }
      return ValidateRec(*e.left, in_body, is_tail, error) &&
             ValidateRec(*e.right, /*in_body=*/true, /*is_tail=*/true, error);
    default:
      return true;
  }
}

}  // namespace

bool ValidateQuery(const Expr& expr, std::string* error) {
  return ValidateRec(expr, /*in_body=*/false, /*is_tail=*/true, error);
}

// ---------------------------------------------------------------------------
// StepGraph

namespace {

// One decomposition step of a query chain: a plain sub-expression, or a
// qualifier body (compiled as the VC..JO sandwich of C[[q]]).
struct Step {
  const Expr* expr = nullptr;
  bool qualifier = false;
};

// Flattens a query into its step chain: concat steps left-to-right, a
// qualified base into base-steps followed by a `[body]` qualifier step — so
// populations sharing a base *and* a qualifier sandwich (`a[b].c` /
// `a[b].d`) share both compiled pieces.  Emitting the steps in this order
// is exactly what CompileExpr does for the whole query.
void FlattenSteps(const Expr& e, std::vector<Step>* out) {
  switch (e.kind) {
    case ExprKind::kConcat:
      FlattenSteps(*e.left, out);
      FlattenSteps(*e.right, out);
      break;
    case ExprKind::kQualified:
      FlattenSteps(*e.left, out);
      out->push_back({e.right.get(), true});
      break;
    default:
      out->push_back({&e, false});
      break;
  }
}

}  // namespace

StepGraph::StepGraph() { streams_.emplace_back(); }

int StepGraph::Add(const Expr& query) {
  const int id = static_cast<int>(queries_.size());
  queries_.push_back(&query);
  // An existing (parent stream, canonical step) pair is reused, anything
  // else opens a new stream under its parent.
  std::vector<Step> steps;
  FlattenSteps(query, &steps);
  int current = 0;  // root stream
  for (const Step& step : steps) {
    std::string key = step.qualifier ? "[" + step.expr->ToString() + "]"
                                     : step.expr->ToString();
    auto it = memo_.find({current, key});
    if (it == memo_.end()) {
      const int stream_id = static_cast<int>(streams_.size());
      Stream node;
      node.step = step.expr;
      node.is_qualifier = step.qualifier;
      streams_.push_back(std::move(node));
      streams_[current].children.push_back(stream_id);
      it = memo_.emplace(std::make_pair(current, std::move(key)), stream_id)
               .first;
    }
    current = it->second;
  }
  streams_[current].query_ends.push_back(id);
  // Condition variables are created only by qualifier sandwiches (VC/VD)
  // and preceding-axis transducers (PR); everything else moves constant
  // formulas, which is what makes batched delivery order-safe.
  batchable_ = batchable_ && !query.ContainsKind(ExprKind::kQualified) &&
               !query.ContainsKind(ExprKind::kPreceding);
  return id;
}

CompiledNetwork StepGraph::Compile(const std::vector<ResultSink*>& sinks,
                                   RunContext* context) const {
  CompiledNetwork out;
  out.batchable = batchable_;
  out.outputs.assign(queries_.size(), nullptr);
  NetworkBuilder builder(&out.network, context);
  // tape[s]: the output tape of stream s.  Ascending stream-id order is a
  // valid insertion order for Network::AddNode (a child stream's id is
  // always greater than its parent's, and the child's step nodes are added
  // while visiting the parent — reading tapes that already exist).
  std::vector<int> tape(streams_.size(), -1);
  // A lone query's IN implements the query as a whole; a shared IN has no
  // single provenance.
  tape[0] = builder.AddInput(queries_.size() == 1 ? queries_[0] : nullptr);
  out.input_node = builder.input_node();
  std::vector<int> tapes;
  for (size_t s = 0; s < streams_.size(); ++s) {
    const Stream& node = streams_[s];
    // Consumers of this stream's tape: one OU per ending query plus one per
    // child step.  Fan out with a chain of splits (none for one consumer).
    const int consumers = static_cast<int>(node.query_ends.size()) +
                          static_cast<int>(node.children.size());
    tapes.clear();
    int current = tape[s];
    for (int i = 0; i + 1 < consumers; ++i) {
      auto [t1, t2] = builder.AddSplit(current);
      tapes.push_back(t1);
      current = t2;
    }
    if (consumers > 0) tapes.push_back(current);
    size_t next = 0;
    for (int query_id : node.query_ends) {
      out.outputs[static_cast<size_t>(query_id)] = builder.AddOutput(
          tapes[next++], sinks[static_cast<size_t>(query_id)],
          queries_[static_cast<size_t>(query_id)]);
    }
    for (int child_id : node.children) {
      const Stream& child = streams_[static_cast<size_t>(child_id)];
      tape[static_cast<size_t>(child_id)] =
          child.is_qualifier
              ? builder.CompileQualifier(*child.step, tapes[next++])
              : builder.CompileExpr(*child.step, tapes[next++]);
    }
  }
  return out;
}

int StepGraph::NaiveDegree() const {
  int total = 0;
  for (const Expr* query : queries_) {
    RunContext scratch;
    CountingResultSink sink;
    total += CompileToNetwork(*query, &sink, &scratch).network.node_count();
  }
  return total;
}

CompiledNetwork CompileToNetwork(const Expr& expr, ResultSink* sink,
                                 RunContext* context) {
  StepGraph graph;
  graph.Add(expr);
  return graph.Compile({sink}, context);
}

// ---------------------------------------------------------------------------
// QueryTemplate

namespace {

// FNV-1a 64-bit over the sorted canonical texts, one '\n' terminator per
// entry so {"a","bc"} and {"ab","c"} cannot collide by concatenation.
std::string DigestOfSorted(const std::vector<std::string>& sorted_texts) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const std::string& text : sorted_texts) {
    for (char c : text) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kHex[h & 0xf];
    h >>= 4;
  }
  return out;
}

// Parses + validates every text; fills canonical texts (per input) or
// returns the first failure.
Status CanonicalizeAll(const std::vector<std::string>& query_texts,
                       std::vector<ExprPtr>* exprs,
                       std::vector<std::string>* canonical) {
  exprs->reserve(query_texts.size());
  canonical->reserve(query_texts.size());
  for (size_t i = 0; i < query_texts.size(); ++i) {
    ParseResult parsed = ParseRpeq(query_texts[i]);
    if (!parsed.ok()) {
      return Status::MalformedInput("query " + std::to_string(i) + " '" +
                                    query_texts[i] + "': " + parsed.error);
    }
    std::string error;
    if (!ValidateQuery(*parsed.expr, &error)) {
      return Status::MalformedInput("query " + std::to_string(i) + " '" +
                                    query_texts[i] + "': " + error);
    }
    canonical->push_back(parsed.expr->ToString());
    exprs->push_back(std::move(parsed.expr));
  }
  return Status::Ok();
}

// The sorted canonical set: the slots, in slot order.
std::vector<std::string> SortedSet(std::vector<std::string> texts) {
  std::sort(texts.begin(), texts.end());
  texts.erase(std::unique(texts.begin(), texts.end()), texts.end());
  return texts;
}

}  // namespace

std::string QueryTemplate::DigestOf(const std::string& canonical_text) {
  return DigestOfSorted({canonical_text});
}

StatusOr<std::string> QueryTemplate::CanonicalDigest(
    const std::vector<std::string>& query_texts) {
  std::vector<ExprPtr> exprs;
  std::vector<std::string> canonical;
  Status status = CanonicalizeAll(query_texts, &exprs, &canonical);
  if (!status.ok()) return status;
  return DigestOfSorted(SortedSet(std::move(canonical)));
}

std::shared_ptr<const QueryTemplate> QueryTemplate::Build(const Expr& query,
                                                          std::string* error) {
  std::string local_error;
  if (!ValidateQuery(query, &local_error)) {
    if (error != nullptr) *error = local_error;
    return nullptr;
  }
  std::shared_ptr<QueryTemplate> t(new QueryTemplate());
  t->slot_exprs_.push_back(query.Clone());
  t->slot_texts_.push_back(t->slot_exprs_[0]->ToString());
  t->input_to_slot_.push_back(0);
  t->Seal();
  return t;
}

StatusOr<std::shared_ptr<const QueryTemplate>> QueryTemplate::Build(
    const std::vector<std::string>& query_texts) {
  std::vector<ExprPtr> exprs;
  std::vector<std::string> canonical;
  Status status = CanonicalizeAll(query_texts, &exprs, &canonical);
  if (!status.ok()) return status;

  std::shared_ptr<QueryTemplate> t(new QueryTemplate());
  // Slots: the sorted canonical set.  Sorting makes the slot order (and the
  // compiled node order, and the digest) a function of the *set* alone —
  // registration order and spelling variants fold away.
  t->slot_texts_ = SortedSet(canonical);
  t->slot_exprs_.resize(t->slot_texts_.size());
  t->input_to_slot_.resize(query_texts.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    const auto it = std::lower_bound(t->slot_texts_.begin(),
                                     t->slot_texts_.end(), canonical[i]);
    const int slot = static_cast<int>(it - t->slot_texts_.begin());
    t->input_to_slot_[i] = slot;
    if (t->slot_exprs_[slot] == nullptr) {
      t->slot_exprs_[slot] = std::move(exprs[i]);
    }
  }
  t->Seal();
  return std::shared_ptr<const QueryTemplate>(std::move(t));
}

void QueryTemplate::Seal() {
  digest_ = DigestOfSorted(slot_texts_);
  for (const ExprPtr& e : slot_exprs_) graph_.Add(*e);
  // Trial compile, once per template: exactly what instantiation builds.
  // Compilation is linear (Lemma V.1), so this costs about as much as the
  // first real session will.
  RunContext scratch;
  CountingResultSink sink;
  shared_degree_ =
      graph_.Compile(std::vector<ResultSink*>(slot_exprs_.size(), &sink),
                     &scratch)
          .network.node_count();
  naive_degree_ = slot_exprs_.size() == 1 ? shared_degree_
                                          : graph_.NaiveDegree();
}

}  // namespace spex
