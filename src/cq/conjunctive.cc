#include "cq/conjunctive.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "rpeq/parser.h"

namespace spex {

std::string ConjunctiveQuery::ToString() const {
  std::string out = name + "(";
  for (size_t i = 0; i < head.size(); ++i) {
    if (i > 0) out += ",";
    out += head[i];
  }
  out += ") :- ";
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += atoms[i].source + "(" + atoms[i].path->ToString() + ") " +
           atoms[i].target;
  }
  return out;
}

namespace {

// Minimal scanner for the CQ surface syntax.
class CqScanner {
 public:
  explicit CqScanner(std::string_view input) : input_(input) {}

  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool EatStr(std::string_view s) {
    SkipSpace();
    if (input_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }

  std::string ReadName() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '_')) {
      ++pos_;
    }
    return std::string(input_.substr(start, pos_ - start));
  }

  // Reads a balanced-parentheses region starting after '('; returns the
  // contents up to the matching ')', which is consumed.
  bool ReadParenthesized(std::string* out) {
    if (!Eat('(')) return false;
    int depth = 1;
    size_t start = pos_;
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (c == '(') ++depth;
      if (c == ')') {
        --depth;
        if (depth == 0) {
          *out = std::string(input_.substr(start, pos_ - start));
          ++pos_;
          return true;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= input_.size();
  }

  size_t pos() const { return pos_; }

 private:
  std::string_view input_;
  size_t pos_ = 0;
};

}  // namespace

CqParseResult ParseConjunctiveQuery(std::string_view input) {
  CqParseResult result;
  CqScanner s(input);
  auto query = std::make_unique<ConjunctiveQuery>();

  query->name = s.ReadName();
  if (query->name.empty()) {
    result.error = "expected query name";
    return result;
  }
  if (!s.Eat('(')) {
    result.error = "expected '(' after query name";
    return result;
  }
  for (;;) {
    std::string var = s.ReadName();
    if (var.empty()) {
      result.error = "expected head variable";
      return result;
    }
    query->head.push_back(var);
    if (s.Eat(',')) continue;
    break;
  }
  if (!s.Eat(')')) {
    result.error = "expected ')' after head variables";
    return result;
  }
  if (!s.EatStr(":-")) {
    result.error = "expected ':-'";
    return result;
  }
  for (;;) {
    ConjunctiveAtom atom;
    atom.source = s.ReadName();
    if (atom.source.empty()) {
      result.error = "expected atom source variable";
      return result;
    }
    std::string path_text;
    if (!s.ReadParenthesized(&path_text)) {
      result.error = "expected '(rpeq)' in atom";
      return result;
    }
    ParseResult pr = ParseRpeq(path_text);
    if (!pr.ok()) {
      result.error = "bad path in atom: " + pr.error;
      return result;
    }
    atom.path = std::move(pr.expr);
    atom.target = s.ReadName();
    if (atom.target.empty()) {
      result.error = "expected atom target variable";
      return result;
    }
    query->atoms.push_back(std::move(atom));
    if (s.Eat(',')) continue;
    break;
  }
  if (!s.AtEnd()) {
    result.error = "unexpected trailing input";
    return result;
  }
  result.query = std::move(query);
  return result;
}

std::unique_ptr<ConjunctiveQuery> MustParseConjunctiveQuery(
    std::string_view input) {
  CqParseResult r = ParseConjunctiveQuery(input);
  if (!r.ok()) {
    std::fprintf(stderr, "MustParseConjunctiveQuery: %s\n", r.error.c_str());
    std::abort();
  }
  return std::move(r.query);
}

// ---------------------------------------------------------------------------

namespace {

// The variable tree of a (desugared) CQ, and the fold of its branches into
// rpeq qualifiers.
struct CqTree {
  const ConjunctiveQuery* query;
  std::map<std::string, std::vector<int>> children;  // var -> atom indices
  std::map<std::string, int> defining_atom;          // var -> atom index
  std::set<std::string> on_head_path;  // heads and their ancestors

  // Qualifies `expr`, which selects var's nodes, by var's branches other
  // than `skip`: first those leading to no head, then the head-path ones, so
  // heads sharing a variable share its no-head qualifiers (CSE).
  ExprPtr Qualify(ExprPtr expr, const std::string& var, int skip) const {
    auto it = children.find(var);
    if (it == children.end()) return expr;
    for (const bool head_path : {false, true}) {
      for (int ai : it->second) {
        if (ai == skip ||
            (on_head_path.count(query->atoms[ai].target) > 0) != head_path) {
          continue;
        }
        expr = MakeQualified(std::move(expr), Fold(ai));
      }
    }
    return expr;
  }

  // Atom ai with its target's whole subtree folded into nested qualifiers.
  ExprPtr Fold(int ai) const {
    const ConjunctiveAtom& atom = query->atoms[ai];
    return Qualify(atom.path->Clone(), atom.target, /*skip=*/-1);
  }
};

}  // namespace

StatusOr<std::vector<ExprPtr>> CompileConjunctive(
    const ConjunctiveQuery& raw_query) {
  // Desugar identity joins whose defining atoms all start at Root:
  //   Root(p1) Z, Root(p2) Z  ->  Root(p1 & p2) Z
  // (the node-identity join of §I; joins deeper in the graph remain future
  // work as in §VII).
  ConjunctiveQuery query;
  query.name = raw_query.name;
  query.head = raw_query.head;
  {
    std::map<std::string, std::vector<const ConjunctiveAtom*>> by_target;
    for (const ConjunctiveAtom& a : raw_query.atoms) {
      by_target[a.target].push_back(&a);
    }
    std::set<std::string> joined;
    for (const auto& [target, atoms] : by_target) {
      if (atoms.size() < 2) continue;
      bool all_root = true;
      for (const ConjunctiveAtom* a : atoms) {
        if (a->source != "Root") all_root = false;
      }
      if (!all_root) continue;  // the tree check below reports the error
      ConjunctiveAtom merged;
      merged.source = "Root";
      merged.target = target;
      merged.path = atoms[0]->path->Clone();
      for (size_t i = 1; i < atoms.size(); ++i) {
        merged.path =
            MakeIntersect(std::move(merged.path), atoms[i]->path->Clone());
      }
      query.atoms.push_back(std::move(merged));
      joined.insert(target);
    }
    for (const ConjunctiveAtom& a : raw_query.atoms) {
      if (joined.count(a.target) > 0) continue;
      ConjunctiveAtom copy;
      copy.source = a.source;
      copy.target = a.target;
      copy.path = a.path->Clone();
      query.atoms.push_back(std::move(copy));
    }
  }

  // Build the variable graph and check it is a tree rooted at Root.
  CqTree tree;
  tree.query = &query;
  for (size_t i = 0; i < query.atoms.size(); ++i) {
    const ConjunctiveAtom& a = query.atoms[i];
    if (a.target == "Root" || tree.defining_atom.count(a.target) > 0) {
      return Status::MalformedInput(
          "variable " + a.target +
          " is defined by multiple non-Root paths (general identity joins "
          "are future work, paper §VII; joins of Root paths are desugared "
          "to '&')");
    }
    tree.defining_atom[a.target] = static_cast<int>(i);
    tree.children[a.source].push_back(static_cast<int>(i));
  }
  for (const ConjunctiveAtom& a : query.atoms) {
    if (a.source != "Root" && tree.defining_atom.count(a.source) == 0) {
      return Status::MalformedInput("atom source variable " + a.source +
                                    " is never defined");
    }
  }
  // Each head's chain of atoms from Root, walked up from the head; every
  // variable on a chain leads to a head.
  std::vector<std::vector<int>> chains;
  for (const std::string& h : query.head) {
    if (h == "Root") {
      return Status::MalformedInput("Root cannot be a head variable");
    }
    if (tree.defining_atom.count(h) == 0) {
      return Status::MalformedInput("head variable " + h +
                                    " is never defined");
    }
    std::vector<int> chain;
    for (std::string var = h; var != "Root";) {
      if (chain.size() == query.atoms.size()) {
        return Status::MalformedInput("head variable " + h +
                                      " is not reachable from Root");
      }
      tree.on_head_path.insert(var);
      chain.push_back(tree.defining_atom.at(var));
      var = query.atoms[chain.back()].source;
    }
    std::reverse(chain.begin(), chain.end());
    chains.push_back(std::move(chain));
  }

  // One rpeq per head: its chain from Root, every variable on the way
  // qualified by its other branches.  A qualifier on Root is written ()[q].
  std::vector<ExprPtr> rpeqs;
  for (const std::vector<int>& chain : chains) {
    ExprPtr expr = tree.Qualify(MakeEmpty(), "Root", chain.front());
    if (expr->kind == ExprKind::kEmpty) expr = nullptr;
    for (size_t i = 0; i < chain.size(); ++i) {
      const ConjunctiveAtom& a = query.atoms[chain[i]];
      ExprPtr step = tree.Qualify(a.path->Clone(), a.target,
                                  i + 1 < chain.size() ? chain[i + 1] : -1);
      expr = expr == nullptr ? std::move(step)
                             : MakeConcat(std::move(expr), std::move(step));
    }
    rpeqs.push_back(std::move(expr));
  }
  return rpeqs;
}

std::vector<std::vector<std::string>> EvaluateConjunctive(
    const ConjunctiveQuery& query, const std::vector<StreamEvent>& events,
    std::string* error) {
  StatusOr<std::vector<ExprPtr>> heads = CompileConjunctive(query);
  std::vector<SerializingResultSink> sinks(heads.ok() ? heads->size() : 0);
  SpexEngine engine;
  Status status = heads.status();
  for (size_t i = 0; status.ok() && i < sinks.size(); ++i) {
    status = engine.AddQuery(*(*heads)[i], &sinks[i]).status();
  }
  if (!status.ok()) {
    if (error != nullptr) *error = status.message();
    return {};
  }
  engine.Finalize();
  engine.OnEventBatch(events.data(), events.size());
  std::vector<std::vector<std::string>> out;
  for (const SerializingResultSink& sink : sinks) {
    out.push_back(sink.results());
  }
  return out;
}

}  // namespace spex
