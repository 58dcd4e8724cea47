// Tests of the EXPLAIN/PROFILE layer: compiler-recorded query provenance
// (every transducer maps to a byte span of the query text that reparses to
// the sub-expression it implements), the timed attribution invariants
// (message counts sum to the §V total, self-time shares partition 100%,
// per-edge volumes reconstruct per-node traffic), the static EXPLAIN view,
// the heat-annotated DOT rendering, and the watermark rate guard.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/profile.h"
#include "rpeq/parser.h"
#include "spex/compiler.h"
#include "spex/engine.h"
#include "spex/observe.h"
#include "test_util.h"
#include "xml/generators.h"

namespace spex {
namespace {

// Query corpus: the integration-matrix §VI classes over all three corpora
// plus one query per remaining construct (union, optional, positive
// closure, intersection, nested qualifiers, order axes, groups).
const char* kProvenanceCorpus[] = {
    // §VI classes (MONDIAL / WordNet / DMOZ).
    "_*.province.city",
    "_*.country[province].name",
    "_*._",
    "_*.country[province].religions",
    "_*.Noun.wordForm",
    "_*.Noun[wordForm]",
    "_*.Noun[wordForm].gloss",
    "_*.Topic.Title",
    "_*.Topic[editor].Title",
    "_*.Topic[editor].newsGroup",
    // Remaining constructs.
    "(a|b).c",
    "a.b?",
    "a+.b",
    "(a&b).c",
    "a[b[c].d].e",
    "a[b|c]",
    "_*.x.>>b",
    "_*.x.<<_",
    "a[<<b]",
};

// Every transducer the compiler adds must carry provenance: a non-empty
// concrete-syntax fragment and a byte span into the original query text
// whose slice reparses to the same sub-expression the node implements.
TEST(ProvenanceTest, EverySpanSlicesAndReparses) {
  for (const char* query_text : kProvenanceCorpus) {
    SCOPED_TRACE(query_text);
    const std::string text = query_text;
    ParseResult parsed = ParseRpeq(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    RunContext context;
    CountingResultSink sink;
    CompiledNetwork net = CompileToNetwork(*parsed.expr, &sink, &context);
    for (int i = 0; i < net.network.node_count(); ++i) {
      const NodeProvenance& prov = net.network.provenance(i);
      SCOPED_TRACE(net.network.node(i)->name() + " -> `" + prov.fragment +
                   "`");
      ASSERT_FALSE(prov.fragment.empty());
      ASSERT_LT(prov.span.begin, prov.span.end);
      ASSERT_LE(prov.span.end, text.size());
      const std::string slice =
          text.substr(prov.span.begin, prov.span.length());
      ParseResult sliced = ParseRpeq(slice);
      ASSERT_TRUE(sliced.ok())
          << "span slice `" << slice << "` does not parse: " << sliced.error;
      ParseResult fragment = ParseRpeq(prov.fragment);
      ASSERT_TRUE(fragment.ok()) << fragment.error;
      EXPECT_TRUE(sliced.expr->Equals(*fragment.expr))
          << "slice `" << slice << "` != fragment `" << prov.fragment << "`";
    }
  }
}

// The whole-query span is stamped on the source and sink.
TEST(ProvenanceTest, InputAndOutputCarryWholeQuery) {
  const std::string text = "_*.Topic[editor].Title";
  ParseResult parsed = ParseRpeq(text);
  ASSERT_TRUE(parsed.ok());
  RunContext context;
  CountingResultSink sink;
  CompiledNetwork net = CompileToNetwork(*parsed.expr, &sink, &context);
  const NodeProvenance& in = net.network.provenance(net.input_node);
  EXPECT_EQ(in.span.begin, 0u);
  EXPECT_EQ(in.span.end, text.size());
  bool found_ou = false;
  for (int i = 0; i < net.network.node_count(); ++i) {
    if (net.network.node(i)->name() != "OU") continue;
    found_ou = true;
    EXPECT_EQ(net.network.provenance(i).span.begin, 0u);
    EXPECT_EQ(net.network.provenance(i).span.end, text.size());
  }
  EXPECT_TRUE(found_ou);
}

std::vector<StreamEvent> DmozEvents() {
  return GenerateToVector(
      [](EventSink* s) { GenerateDmozLike(5, 0.001, false, s); });
}

// The timed attribution invariants of an engine run with options.profile.
void ExpectTimedReportInvariants(SpexEngine& engine) {
  const obs::ProfileReport report = engine.Profile();
  EXPECT_TRUE(report.timed);
  EXPECT_GT(report.total_self_ns, 0);
  ASSERT_EQ(static_cast<int>(report.nodes.size()),
            engine.network().node_count());

  // Message counts: per-node messages_in sum to the report's total, which
  // agrees with the §V aggregate the registry computes.
  int64_t sum_in = 0;
  double share_sum = 0;
  for (const obs::ProfileNode& n : report.nodes) {
    sum_in += n.messages_in;
    share_sum += n.time_share;
    // One profiler bracket per delivery, one CountIn per delivery.
    EXPECT_EQ(n.deliveries, n.messages_in) << n.name;
    EXPECT_GE(n.self_ns, 0) << n.name;
    EXPECT_GE(n.total_ns, n.self_ns) << n.name;
    EXPECT_FALSE(n.cost_class.empty()) << n.name;
  }
  EXPECT_EQ(sum_in, report.total_messages);
  EXPECT_EQ(report.total_messages, engine.ComputeStats().total_messages);

  // Self times partition the instrumented wall time: shares sum to 100%.
  EXPECT_NEAR(share_sum, 1.0, 1e-9);

  // Edge volumes reconstruct node traffic: every non-source node's
  // messages_in equals the sum over its incoming tapes.
  std::vector<int64_t> incoming(report.nodes.size(), 0);
  for (const obs::ProfileEdge& e : report.edges) {
    ASSERT_GE(e.to, 0);
    ASSERT_LT(static_cast<size_t>(e.to), incoming.size());
    incoming[static_cast<size_t>(e.to)] += e.messages;
  }
  for (const obs::ProfileNode& n : report.nodes) {
    if (n.name == "IN") continue;  // injected directly, no incoming tape
    EXPECT_EQ(incoming[static_cast<size_t>(n.id)], n.messages_in) << n.name;
  }
}

TEST(ProfileTest, TimedReportInvariants) {
  ExprPtr query = MustParseRpeq("_*.Topic[editor].Title");
  EngineOptions options;
  options.profile = true;
  CountingResultSink sink;
  SpexEngine engine(*query, &sink, options);
  for (const StreamEvent& e : DmozEvents()) engine.OnEvent(e);
  ASSERT_GT(sink.results(), 0);
  ExpectTimedReportInvariants(engine);
}

// A population runs the same instruments as one query: the timed report
// over the shared network keeps every invariant, and progress watermarks
// fire.
TEST(ProfileTest, PopulationTimedReportInvariants) {
  EngineOptions options;
  options.profile = true;
  std::vector<Watermark> marks;
  options.progress.every_events = 200;
  options.progress.callback = [&marks](const Watermark& w) {
    marks.push_back(w);
  };
  SpexEngine engine(options);
  CountingResultSink sinks[3];
  const char* queries[] = {"_*.Topic[editor].Title", "_*.Topic.Title",
                           "_*.Topic[editor].newsGroup"};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.AddQuery(queries[i], &sinks[i]).ok());
  }
  engine.Finalize();
  const std::vector<StreamEvent> events = DmozEvents();
  for (const StreamEvent& e : events) engine.OnEvent(e);
  ASSERT_GT(sinks[0].results(), 0);
  ASSERT_GT(sinks[1].results(), 0);
  ExpectTimedReportInvariants(engine);

  ASSERT_FALSE(marks.empty());
  EXPECT_EQ(marks.size(), events.size() / 200);
  EXPECT_EQ(marks.front().events, 200);
  EXPECT_LE(marks.back().results, engine.total_result_count());
}

TEST(ProfileTest, RenderingsAreWellFormed) {
  ExprPtr query = MustParseRpeq("_*.Topic[editor].Title");
  EngineOptions options;
  options.profile = true;
  CountingResultSink sink;
  SpexEngine engine(*query, &sink, options);
  for (const StreamEvent& e : DmozEvents()) engine.OnEvent(e);
  const obs::ProfileReport report = engine.Profile();

  const std::string table = report.ToTable();
  EXPECT_NE(table.find("PROFILE"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
  EXPECT_NE(table.find("@[0,"), std::string::npos);  // provenance column

  const std::string json = report.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"edges\""), std::string::npos);

  // The heat-annotated DOT must stay structurally valid with timing
  // annotations, provenance labels and fill colors in place.
  std::string error;
  const std::string dot = engine.network().ToDot(&report);
  EXPECT_TRUE(CheckDotStructure(dot, &error)) << error << "\n" << dot;
  EXPECT_NE(dot.find("fillcolor"), std::string::npos);
  EXPECT_NE(dot.find("% self"), std::string::npos);
  EXPECT_NE(dot.find("msgs"), std::string::npos);
}

TEST(ProfileTest, StaticExplainWithoutRun) {
  ExprPtr query = MustParseRpeq("_*.country[province].name");
  CountingResultSink sink;
  SpexEngine engine(*query, &sink);  // no profile option, no events
  const obs::ProfileReport report = engine.Profile();
  EXPECT_FALSE(report.timed);
  EXPECT_EQ(report.events, 0);
  EXPECT_EQ(report.total_self_ns, 0);
  for (const obs::ProfileNode& n : report.nodes) {
    EXPECT_FALSE(n.cost_class.empty()) << n.name;
    EXPECT_FALSE(n.fragment.empty()) << n.name;
  }
  const std::string text = report.ToExplainText();
  EXPECT_NE(text.find("EXPLAIN"), std::string::npos);
  EXPECT_NE(text.find("VC(q0)"), std::string::npos);
  EXPECT_NE(text.find("province"), std::string::npos);
}

// The engine must never report inf/garbage rates, no matter how quickly
// watermarks are polled (regression: the first tick could divide by a
// zero-length window).
TEST(WatermarkTest, RateGuardedOnTinyWindows) {
  ExprPtr query = MustParseRpeq("a");
  CountingResultSink sink;
  SpexEngine engine(*query, &sink);
  const Watermark w1 = engine.CurrentWatermark();
  const Watermark w2 = engine.CurrentWatermark();  // back-to-back poll
  EXPECT_TRUE(std::isfinite(w1.events_per_sec));
  EXPECT_TRUE(std::isfinite(w2.events_per_sec));
  for (const Watermark& w : {w1, w2}) {
    const std::string s = w.ToString();
    EXPECT_EQ(s.find("inf"), std::string::npos) << s;
    EXPECT_EQ(s.find("nan"), std::string::npos) << s;
  }
}

// Defense in depth: even a hand-filled non-finite rate renders as 0.
TEST(WatermarkTest, ToStringClampsNonFiniteRate) {
  Watermark w;
  w.events_per_sec = std::numeric_limits<double>::infinity();
  const std::string s = w.ToString();
  EXPECT_EQ(s.find("inf"), std::string::npos) << s;
  EXPECT_NE(s.find("rate=0ev/s"), std::string::npos) << s;
}

}  // namespace
}  // namespace spex
