// Property-based differential tests for the conjunctive-query translation:
// projected on one head variable, a randomly generated tree-shaped CQ is
// semantically an rpeq (the chain to the head with the side branches folded
// into qualifiers) — the CQ evaluation must agree exactly with that rpeq's,
// for single-head chains and for multi-head trees.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>

#include "baseline/dom_evaluator.h"
#include "cq/conjunctive.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "test_util.h"
#include "xml/dom.h"
#include "xml/generators.h"

namespace spex {
namespace {

struct GeneratedCq {
  std::string cq_text;
  ExprPtr equivalent_rpeq;
};

std::string RandomStep(std::mt19937_64& rng) {
  static const char* kLabels[] = {"a", "b", "c", "_"};
  auto label = [&] { return std::string(kLabels[rng() % 4]); };
  switch (rng() % 3) {
    case 0:
      return label() + "*";
    case 1:
      return label() + "+";
    default:
      return label();
  }
}

// Builds a random chain Root -> X1 -> ... -> Xn (head = Xn) with random
// qualifier branches hanging off the chain, plus the equivalent rpeq.
GeneratedCq MakeRandomChainCq(std::mt19937_64& rng) {
  auto step = [&] { return RandomStep(rng); };

  int chain_length = 1 + static_cast<int>(rng() % 3);
  GeneratedCq out;
  std::string atoms;
  std::string rpeq;
  int var_counter = 0;
  std::string current = "Root";
  for (int i = 0; i < chain_length; ++i) {
    std::string path = step();
    if (rng() % 2 == 0) path += "." + step();
    std::string next = "X" + std::to_string(++var_counter);
    if (!atoms.empty()) atoms += ", ";
    atoms += current + "(" + path + ") " + next;
    if (!rpeq.empty()) rpeq += ".";
    rpeq += path;
    // Optionally attach a qualifier branch to this chain variable (a
    // non-head leaf in the CQ == a qualifier on the step in the rpeq).
    if (rng() % 2 == 0) {
      std::string qpath = step();
      std::string leaf = "X" + std::to_string(++var_counter);
      atoms += ", " + next + "(" + qpath + ") " + leaf;
      rpeq = rpeq + "[" + qpath + "]";
    }
    current = next;
  }
  out.cq_text = "q(" + current + ") :- " + atoms;
  out.equivalent_rpeq = MustParseRpeq(rpeq);
  return out;
}

class CqDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(CqDifferentialTest, ChainCqEqualsFoldedRpeq) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  RandomTreeOptions opts;
  opts.max_depth = 5;
  opts.max_children = 3;
  opts.max_elements = 60;
  opts.labels = {"a", "b", "c"};
  opts.root_label = "a";
  std::vector<StreamEvent> events = GenerateToVector([&](EventSink* s) {
    GenerateRandomTree(static_cast<uint64_t>(GetParam()), opts, s);
  });
  for (int round = 0; round < 6; ++round) {
    GeneratedCq gen = MakeRandomChainCq(rng);
    SCOPED_TRACE("cq=" + gen.cq_text +
                 " rpeq=" + gen.equivalent_rpeq->ToString());
    auto cq = MustParseConjunctiveQuery(gen.cq_text);
    std::string error;
    auto cq_results = EvaluateConjunctive(*cq, events, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(cq_results.size(), 1u);
    EXPECT_EQ(cq_results[0],
              EvaluateToStrings(*gen.equivalent_rpeq, events));
  }
}

struct GeneratedTreeCq {
  std::string cq_text;
  // Per head, in head order: the CQ projected on that head as rpeq text.
  std::vector<std::string> head_rpeqs;
};

// Builds a random tree CQ: 2-6 variables, each hanging off Root or an
// earlier variable by a step, half of them under `_*`, and 1-3 distinct
// heads.  A
// head's rpeq walks its chain from Root and qualifies every variable on the
// way (Root as `()`) by all its other branches, each folded whole, in atom
// order.
GeneratedTreeCq MakeRandomTreeCq(std::mt19937_64& rng) {
  const int vars = 2 + static_cast<int>(rng() % 5);
  std::vector<std::string> name = {"Root"};
  std::vector<int> parent = {-1};
  std::vector<std::string> path = {""};
  std::map<int, std::vector<int>> children;
  std::string atoms;
  for (int v = 1; v <= vars; ++v) {
    name.push_back("X" + std::to_string(v));
    parent.push_back(static_cast<int>(rng() % static_cast<uint64_t>(v)));
    path.push_back(RandomStep(rng));
    if (rng() % 2 == 0) path.back() = "_*." + path.back();
    children[parent[v]].push_back(v);
    if (!atoms.empty()) atoms += ", ";
    atoms += name[parent[v]] + "(" + path[v] + ") " + name[v];
  }
  std::vector<int> heads;
  const int head_count = 1 + static_cast<int>(rng() % 3);
  while (static_cast<int>(heads.size()) < std::min(head_count, vars)) {
    const int h = 1 + static_cast<int>(rng() % static_cast<uint64_t>(vars));
    if (std::find(heads.begin(), heads.end(), h) == heads.end()) {
      heads.push_back(h);
    }
  }
  // v's branches other than `skip`, each folded with its whole subtree.
  std::function<std::string(int, int)> qualifiers = [&](int v, int skip) {
    std::string out;
    for (int c : children[v]) {
      if (c == skip) continue;
      out += "[(" + path[c] + ")" + qualifiers(c, -1) + "]";
    }
    return out;
  };
  GeneratedTreeCq out;
  std::string head_list;
  for (int h : heads) {
    if (!head_list.empty()) head_list += ",";
    head_list += name[h];
    std::vector<int> chain;
    for (int v = h; v != 0; v = parent[v]) chain.insert(chain.begin(), v);
    std::string rpeq;
    const std::string root_qualifiers = qualifiers(0, chain.front());
    if (!root_qualifiers.empty()) rpeq = "()" + root_qualifiers;
    for (size_t i = 0; i < chain.size(); ++i) {
      if (!rpeq.empty()) rpeq += ".";
      rpeq += "(" + path[chain[i]] + ")" +
              qualifiers(chain[i], i + 1 < chain.size() ? chain[i + 1] : -1);
    }
    out.head_rpeqs.push_back(rpeq);
  }
  out.cq_text = "q(" + head_list + ") :- " + atoms;
  return out;
}

TEST_P(CqDifferentialTest, TreeCqEqualsOraclePerHead) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 104729 + 11);
  RandomTreeOptions opts;
  opts.max_depth = 5;
  opts.max_children = 3;
  opts.max_elements = 60;
  opts.labels = {"a", "b", "c"};
  opts.root_label = "a";
  std::vector<StreamEvent> events = GenerateToVector([&](EventSink* s) {
    GenerateRandomTree(static_cast<uint64_t>(GetParam()) + 100, opts, s);
  });
  Document doc;
  std::string doc_error;
  ASSERT_TRUE(EventsToDocument(events, &doc, &doc_error)) << doc_error;
  for (int round = 0; round < 20; ++round) {
    GeneratedTreeCq gen = MakeRandomTreeCq(rng);
    SCOPED_TRACE("cq=" + gen.cq_text);
    auto cq = MustParseConjunctiveQuery(gen.cq_text);
    std::string error;
    auto cq_results = EvaluateConjunctive(*cq, events, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(cq_results.size(), gen.head_rpeqs.size());
    for (size_t h = 0; h < gen.head_rpeqs.size(); ++h) {
      SCOPED_TRACE("head " + cq->head[h] + " rpeq=" + gen.head_rpeqs[h]);
      EXPECT_EQ(cq_results[h],
                DomEvaluateToStrings(*MustParseRpeq(gen.head_rpeqs[h]), doc));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CqDifferentialTest, ::testing::Range(0, 15));

TEST(CqDifferentialTest, RootIdentityJoinEqualsIntersection) {
  std::mt19937_64 rng(42);
  RandomTreeOptions opts;
  opts.max_elements = 80;
  opts.labels = {"a", "b", "c"};
  opts.root_label = "a";
  for (int seed = 0; seed < 10; ++seed) {
    std::vector<StreamEvent> events = GenerateToVector(
        [&](EventSink* s) { GenerateRandomTree(seed, opts, s); });
    const char* pairs[][2] = {
        {"_*.a", "a+"}, {"_*.b", "_._"}, {"a.b", "_*.b"}};
    for (auto& [p1, p2] : pairs) {
      std::string cq_text = std::string("q(X) :- Root(") + p1 +
                            ") X, Root(" + p2 + ") X";
      auto cq = MustParseConjunctiveQuery(cq_text);
      std::string error;
      auto cq_results = EvaluateConjunctive(*cq, events, &error);
      ASSERT_TRUE(error.empty()) << error;
      ExprPtr join =
          MustParseRpeq(std::string(p1) + " & " + std::string(p2));
      SCOPED_TRACE(cq_text);
      EXPECT_EQ(cq_results[0], EvaluateToStrings(*join, events));
    }
  }
}

}  // namespace
}  // namespace spex
