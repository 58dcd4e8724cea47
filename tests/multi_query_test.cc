// Tests of the multi-query engine (§IX outlook): correctness of shared
// evaluation against per-query engines, and the prefix-sharing win.

#include "spex/multi_query.h"

#include <gtest/gtest.h>

#include "query_gen.h"
#include "rpeq/parser.h"
#include "spex/compiler.h"
#include "test_util.h"
#include "xml/generators.h"

namespace spex {
namespace {

constexpr char kPaperDoc[] = "<a><a><c/></a><b/><c/></a>";

// Evaluates `queries` (a) individually and (b) through one shared network;
// expects identical result fragments per query.
void ExpectSharedMatchesIndividual(const std::vector<std::string>& queries,
                                   const std::vector<StreamEvent>& events) {
  std::vector<std::unique_ptr<SerializingResultSink>> shared_sinks;
  MultiQueryEngine mq;
  for (const std::string& q : queries) {
    shared_sinks.push_back(std::make_unique<SerializingResultSink>());
    mq.AddQuery(q, shared_sinks.back().get());
  }
  mq.Finalize();
  for (const StreamEvent& e : events) mq.OnEvent(e);

  for (size_t i = 0; i < queries.size(); ++i) {
    ExprPtr query = MustParseRpeq(queries[i]);
    std::vector<std::string> individual = EvaluateToStrings(*query, events);
    EXPECT_EQ(shared_sinks[i]->results(), individual) << queries[i];
    EXPECT_EQ(mq.result_count(static_cast<int>(i)),
              static_cast<int64_t>(individual.size()));
  }
}

TEST(MultiQueryTest, TwoQueriesSharedPrefix) {
  ExpectSharedMatchesIndividual({"_*.a.c", "_*.a.b"},
                                MustParseEvents(kPaperDoc));
}

TEST(MultiQueryTest, IdenticalQueries) {
  ExpectSharedMatchesIndividual({"_*.c", "_*.c"},
                                MustParseEvents(kPaperDoc));
}

TEST(MultiQueryTest, DisjointQueries) {
  ExpectSharedMatchesIndividual({"a.c", "b", "_*._"},
                                MustParseEvents(kPaperDoc));
}

TEST(MultiQueryTest, QualifiersInSharedPrefix) {
  const char doc[] = "<r><x><f/><p>1</p><q>2</q></x><x><p>3</p></x></r>";
  ExpectSharedMatchesIndividual({"r.x[f].p", "r.x[f].q", "r.x.p"},
                                MustParseEvents(doc));
}

TEST(MultiQueryTest, OneQueryIsPrefixOfAnother) {
  ExpectSharedMatchesIndividual({"_*.a", "_*.a.c", "_*.a.c._*"},
                                MustParseEvents(kPaperDoc));
}

TEST(MultiQueryTest, ManyProfilesOnGeneratedData) {
  std::vector<StreamEvent> events = GenerateToVector(
      [](EventSink* s) { GenerateMondialLike(3, 0.05, s); });
  ExpectSharedMatchesIndividual(
      {"_*.country.name", "_*.country[province].name",
       "_*.country.province.city", "_*.country.province.name",
       "_*.country.religions", "_*.province.city.name"},
      events);
}

TEST(MultiQueryTest, SharingReducesNetworkDegree) {
  CountingResultSink s1, s2, s3;
  MultiQueryEngine mq;
  mq.AddQuery("_*.country[province].name", &s1);
  mq.AddQuery("_*.country[province].religions", &s2);
  mq.AddQuery("_*.country.population", &s3);
  mq.Finalize();
  // The `_*.country` prefix — and for the first two even the qualifier
  // pipeline — is compiled once.
  EXPECT_LT(mq.shared_degree(), mq.naive_degree());
  EXPECT_EQ(mq.query_count(), 3);
}

TEST(MultiQueryTest, NoSharingForDisjointRoots) {
  CountingResultSink s1, s2;
  MultiQueryEngine mq;
  mq.AddQuery("a.b", &s1);
  mq.AddQuery("c.d", &s2);
  mq.Finalize();
  // Only IN is shared (the two networks would each have their own IN/OU):
  // shared = IN + SP + 4 CH + 2 OU = 8, naive = 2 * 4 = 8.
  EXPECT_LE(mq.shared_degree(), mq.naive_degree() + 1);
}

TEST(MultiQueryTest, StepGranularityIsTopLevelConcat) {
  // (a|b).c and (a|b).d share the compiled union subnetwork.
  CountingResultSink s1, s2;
  MultiQueryEngine mq;
  mq.AddQuery("(a|b).c", &s1);
  mq.AddQuery("(a|b).d", &s2);
  mq.Finalize();
  EXPECT_LT(mq.shared_degree(), mq.naive_degree());
  for (const StreamEvent& e : MustParseEvents(kPaperDoc)) mq.OnEvent(e);
  EXPECT_EQ(mq.result_count(0), 1);  // the root a's outer c child
  EXPECT_EQ(mq.result_count(1), 0);  // no d anywhere
}

TEST(MultiQueryTest, StreamsProgressively) {
  CountingResultSink s1, s2;
  MultiQueryEngine mq;
  mq.AddQuery("feed.tick.price", &s1);
  mq.AddQuery("feed.tick[alert].price", &s2);
  mq.Finalize();
  EndlessEventSource source(11);
  FunctionEventSink feed([&](const StreamEvent& e) { mq.OnEvent(e); });
  source.Begin(&feed);
  for (int i = 0; i < 500; ++i) source.NextRecord(&feed);
  EXPECT_EQ(mq.result_count(0), 500);
  EXPECT_GT(mq.result_count(1), 0);
  EXPECT_LT(mq.result_count(1), 500);
  // GC also works through the multi-query engine.
  EXPECT_LE(mq.context().assignment.size(), 4u);
}

TEST(MultiQueryTest, AddQueryRejectsBadSyntaxAsStatus) {
  CountingResultSink sink;
  MultiQueryEngine mq;
  StatusOr<int> bad = mq.AddQuery("a..b", &sink);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kMalformedInput);
  StatusOr<int> unbalanced = mq.AddQuery("a[b", &sink);
  ASSERT_FALSE(unbalanced.ok());
  EXPECT_EQ(unbalanced.status().code(), StatusCode::kMalformedInput);
  // The engine is still usable: a bad query never poisons registration.
  StatusOr<int> good = mq.AddQuery("_*.a.c", &sink);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 0);
  mq.Finalize();
  std::vector<StreamEvent> events = MustParseEvents(kPaperDoc);
  for (const StreamEvent& e : events) mq.OnEvent(e);
  EXPECT_EQ(mq.result_count(0),
            CountMatches(*MustParseRpeq("_*.a.c"), events));
}

TEST(MultiQueryTest, AddQueryRejectsInvalidExpressionAsStatus) {
  // Validation failures (not just parse failures) must surface as status:
  // a preceding step inside a qualifier body is rejected by ValidateQuery.
  CountingResultSink sink;
  MultiQueryEngine mq;
  ExprPtr invalid = MakeQualified(
      MakeLabel("a"), MakeConcat(MakePreceding("b"), MakeLabel("c")));
  StatusOr<int> result = mq.AddQuery(*invalid, &sink);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kMalformedInput);
}

TEST(MultiQueryTest, AddQueryAfterFinalizeIsFailedPrecondition) {
  CountingResultSink sink;
  MultiQueryEngine mq;
  ASSERT_TRUE(mq.AddQuery("_*.c", &sink).ok());
  mq.Finalize();
  StatusOr<int> late = mq.AddQuery("_*.b", &sink);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  ExprPtr parsed = MustParseRpeq("_*.b");
  StatusOr<int> late_expr = mq.AddQuery(*parsed, &sink);
  ASSERT_FALSE(late_expr.ok());
  EXPECT_EQ(late_expr.status().code(), StatusCode::kFailedPrecondition);
  // The finalized engine still runs normally.
  for (const StreamEvent& e : MustParseEvents(kPaperDoc)) mq.OnEvent(e);
  EXPECT_EQ(mq.result_count(0), 2);
  EXPECT_EQ(mq.query_count(), 1);
}

// A single query is the population of one: for every query the 525-pair
// differential battery generates, the one-slot engine (built directly or
// from a one-slot template) is exactly IN + NetworkBuilder::CompileExpr of
// the whole query + OU — the same nodes in id order, the same degree.
TEST(MultiQueryTest, OneSlotNetworkIsTheFig11Translation) {
  const std::vector<std::pair<QueryGenKnobs, int>> configs = {
      {QueryGenKnobs::Structural(), 4}, {QueryGenKnobs{}, 5},
      {QueryGenKnobs::WithAxes(30), 4}, {QueryGenKnobs::Full(), 6},
      {QueryGenKnobs::Full(), 8}};
  int checked = 0;
  for (size_t c = 0; c < configs.size(); ++c) {
    for (int seed = 0; seed < 21; ++seed) {
      QueryGen gen(static_cast<uint64_t>(seed) * 9176 + c * 77 + 1,
                   configs[c].first);
      for (int q = 0; q < 5; ++q) {
        ExprPtr query = gen.Gen(configs[c].second);
        SCOPED_TRACE("config=" + std::to_string(c) +
                     " seed=" + std::to_string(seed) +
                     " query=" + query->ToString());
        RunContext context;
        Network reference;
        CountingResultSink sink;
        NetworkBuilder builder(&reference, &context);
        const int in = builder.AddInput(query.get());
        builder.AddOutput(builder.CompileExpr(*query, in), &sink, query.get());

        std::string error;
        std::shared_ptr<const QueryTemplate> one_slot =
            QueryTemplate::Build(*query, &error);
        ASSERT_NE(one_slot, nullptr) << error;
        SpexEngine direct(*query, &sink);
        SpexEngine instantiated(one_slot, &sink);
        for (SpexEngine* engine : {&direct, &instantiated}) {
          ASSERT_EQ(engine->shared_degree(), reference.node_count());
          EXPECT_EQ(engine->ComputeStats().network_degree,
                    reference.node_count());
          for (int i = 0; i < reference.node_count(); ++i) {
            ASSERT_EQ(engine->network().node(i)->name(),
                      reference.node(i)->name())
                << "node " << i;
          }
        }
        EXPECT_EQ(one_slot->shared_degree(), reference.node_count());
        EXPECT_EQ(one_slot->naive_degree(), reference.node_count());
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 525);
}

}  // namespace
}  // namespace spex
