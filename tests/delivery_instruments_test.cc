// Instruments do not change delivery: the profiler, observe=full tracing and
// the sampling profiler all ride on the same network sweep as a plain run.
// For the qualifier, preceding-axis and population queries of the
// differential batteries, and for batchable networks (no condition
// variables), whose sweeps carry whole fed batches under every instrument,
// every instrument at batch sizes 1 and 64 must produce the plain per-event
// run's per-slot results and every node's TransducerStats, exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "obs/sampling_profiler.h"
#include "query_gen.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "xml/generators.h"

namespace spex {
namespace {

enum class Instrument { kPlain, kProfile, kObserveFull, kSampling };

const char* InstrumentName(Instrument instrument) {
  switch (instrument) {
    case Instrument::kPlain:
      return "plain";
    case Instrument::kProfile:
      return "profile";
    case Instrument::kObserveFull:
      return "observe=full";
    case Instrument::kSampling:
      return "sampling/1";
  }
  return "?";
}

// What one run delivered: each slot's serialized results and one line of
// TransducerStats per network node.
struct RunOutcome {
  std::vector<std::vector<std::string>> results;
  std::vector<std::string> node_stats;
};

RunOutcome Run(const std::vector<ExprPtr>& queries,
               const std::vector<StreamEvent>& events, Instrument instrument,
               size_t batch_size) {
  EngineOptions options;
  options.profile = instrument == Instrument::kProfile;
  if (instrument == Instrument::kObserveFull) {
    options.observe = ObserveLevel::kFull;
  }
  obs::SamplingProfiler sampler(obs::SamplingProfiler::Options{1});
  std::vector<std::unique_ptr<SerializingResultSink>> sinks;
  SpexEngine engine(options);
  for (const ExprPtr& q : queries) {
    sinks.push_back(std::make_unique<SerializingResultSink>());
    StatusOr<int> id = engine.AddQuery(*q, sinks.back().get());
    EXPECT_TRUE(id.ok()) << id.status().message();
  }
  engine.Finalize();
  if (instrument == Instrument::kSampling) engine.SetBatchSampler(&sampler);
  for (size_t i = 0; i < events.size(); i += batch_size) {
    engine.OnEventBatch(events.data() + i,
                        std::min(batch_size, events.size() - i));
  }
  // The instrument was really on.
  switch (instrument) {
    case Instrument::kPlain:
      break;
    case Instrument::kProfile:
      EXPECT_TRUE(engine.Profile().timed);
      break;
    case Instrument::kObserveFull:
      EXPECT_NE(engine.trace_recorder(), nullptr);
      break;
    case Instrument::kSampling:
      EXPECT_GT(engine.sampled_batches(), 0);
      break;
  }
  RunOutcome out;
  for (const auto& sink : sinks) out.results.push_back(sink->results());
  Network& network = engine.network();
  for (int i = 0; i < network.node_count(); ++i) {
    const TransducerStats& s = network.node(i)->stats();
    out.node_stats.push_back(
        std::to_string(i) + " " + network.node(i)->name() +
        " in=" + std::to_string(s.messages_in) +
        " out=" + std::to_string(s.messages_out) +
        " depth^=" + std::to_string(s.depth_stack_peak) +
        " cond^=" + std::to_string(s.condition_stack_peak) +
        " fnodes^=" + std::to_string(s.formula_nodes_peak));
  }
  return out;
}

// Runs every instrument at batch sizes 1 and 64 against the plain
// one-event-per-batch run.
void ExpectInstrumentsAgree(const std::vector<ExprPtr>& queries,
                            const std::vector<StreamEvent>& events) {
  const RunOutcome reference = Run(queries, events, Instrument::kPlain, 1);
  for (Instrument instrument :
       {Instrument::kPlain, Instrument::kProfile, Instrument::kObserveFull,
        Instrument::kSampling}) {
    for (size_t batch_size : {size_t{1}, size_t{64}}) {
      SCOPED_TRACE(std::string(InstrumentName(instrument)) +
                   " batch_size=" + std::to_string(batch_size));
      const RunOutcome run = Run(queries, events, instrument, batch_size);
      EXPECT_EQ(run.results, reference.results);
      EXPECT_EQ(run.node_stats, reference.node_stats);
    }
  }
}

std::vector<StreamEvent> RandomDoc(uint64_t seed, int max_depth,
                                   int64_t max_elements,
                                   std::vector<std::string> labels,
                                   std::string root_label) {
  RandomTreeOptions opts;
  opts.max_depth = max_depth;
  opts.max_children = 3;
  opts.max_elements = max_elements;
  opts.labels = std::move(labels);
  opts.root_label = std::move(root_label);
  return GenerateToVector(
      [&](EventSink* sink) { GenerateRandomTree(seed, opts, sink); });
}

std::vector<ExprPtr> One(const char* query) {
  std::vector<ExprPtr> queries;
  queries.push_back(MustParseRpeq(query));
  return queries;
}

// The differential battery's "qualifiers" configuration plus its
// hand-picked qualifier regressions.
TEST(InstrumentsDoNotChangeDelivery, QualifierQueries) {
  for (int seed = 0; seed < 6; ++seed) {
    const std::vector<StreamEvent> events =
        RandomDoc(static_cast<uint64_t>(seed) * 131 + 1, 5, 60,
                  {"a", "b", "c"}, "a");
    QueryGen gen(static_cast<uint64_t>(seed) * 9176 + 78, QueryGenKnobs{});
    for (int q = 0; q < 3; ++q) {
      std::vector<ExprPtr> queries;
      queries.push_back(gen.Gen(5));
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " query=" + queries[0]->ToString());
      ExpectInstrumentsAgree(queries, events);
    }
  }
  const std::vector<StreamEvent> events =
      RandomDoc(3, 6, 80, {"a", "b", "c"}, "a");
  for (const char* query : {"_*.a[b].c", "_*.a[b[c]]", "_*.a[b][c]",
                            "a[_*.c].b", "a[b|c]", "a[b].a[c]"}) {
    SCOPED_TRACE(query);
    ExpectInstrumentsAgree(One(query), events);
  }
}

// The order-axes battery's queries, preceding and following.
TEST(InstrumentsDoNotChangeDelivery, OrderAxisQueries) {
  for (int seed = 0; seed < 4; ++seed) {
    const std::vector<StreamEvent> events =
        RandomDoc(static_cast<uint64_t>(seed), 5, 50, {"a", "b", "x"}, "r");
    for (const char* query : {"_*.x.<<a", "r._.<<_", "_*.a[<<b]",
                              "_*.x.>>a", "_*.a[>>b]", "(_*.x.>>a)|(_*.b)"}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " query=" + query);
      ExpectInstrumentsAgree(One(query), events);
    }
  }
}

// A generated population on one shared DAG, as in the multi-query battery:
// qualifiers and (through the full knobs) order axes and intersections.
TEST(InstrumentsDoNotChangeDelivery, Populations) {
  const std::vector<StreamEvent> events = GenerateToVector(
      [](EventSink* s) { GenerateMondialLike(11, 0.02, s); });
  for (const QueryGenKnobs& base : {QueryGenKnobs{}, QueryGenKnobs::Full()}) {
    QueryGenKnobs knobs = base;
    knobs.labels = {"mondial", "country",   "name", "province",
                    "city",    "religions", "_"};
    QueryGen gen(0x5eed0010u + static_cast<uint64_t>(knobs.axis_percent),
                 knobs);
    std::vector<ExprPtr> queries;
    for (int i = 0; i < 16; ++i) queries.push_back(gen.Gen(2 + i % 4));
    SCOPED_TRACE("axis_percent=" + std::to_string(knobs.axis_percent));
    ExpectInstrumentsAgree(queries, events);
  }
}

// Networks without condition variables sweep each fed batch at once, with
// or without an instrument attached: a single query and a qualifier-free
// generated population.
TEST(InstrumentsDoNotChangeDelivery, BatchableNetworks) {
  const std::vector<StreamEvent> dmoz = GenerateToVector(
      [](EventSink* s) { GenerateDmozLike(5, 0.001, false, s); });
  {
    SCOPED_TRACE("_*.Topic.Title");
    ExpectInstrumentsAgree(One("_*.Topic.Title"), dmoz);
  }
  const std::vector<StreamEvent> events = GenerateToVector(
      [](EventSink* s) { GenerateMondialLike(11, 0.02, s); });
  QueryGenKnobs knobs = QueryGenKnobs::Structural();
  knobs.labels = {"mondial", "country",   "name", "province",
                  "city",    "religions", "_"};
  QueryGen gen(0x5eed0020u, knobs);
  std::vector<ExprPtr> queries;
  for (int i = 0; i < 16; ++i) queries.push_back(gen.Gen(2 + i % 4));
  SCOPED_TRACE("qualifier-free population");
  ExpectInstrumentsAgree(queries, events);
}

}  // namespace
}  // namespace spex
