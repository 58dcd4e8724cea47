// Tests of the per-query observability plane (DESIGN.md §13): QueryRegistry
// id stability and canonical keying (including across compiled-query-cache
// eviction), cross-worker aggregation against a single-thread oracle,
// RED/duration folding, the slow-query log and flight-dump emission paths,
// the batch-granular sampling profiler's invariants (shares sum to <= 1,
// full-coverage sampling reproduces the full profiler's delivery counts),
// and the FlightRecorder ring itself (bounded, freeze-once, JSON shape).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/profile.h"
#include "obs/sampling_profiler.h"
#include "runtime/engine_pool.h"
#include "runtime/query_cache.h"
#include "runtime/query_registry.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "xml/xml_parser.h"

namespace spex {
namespace {

constexpr char kDoc[] =
    "<lib><book><author>A</author><title>T1</title></book>"
    "<book><title>T2</title></book>"
    "<book><author>B</author><title>T3</title></book></lib>";

std::vector<StreamEvent> DocEvents(const std::string& doc = kDoc) {
  std::vector<StreamEvent> events;
  EXPECT_TRUE(ParseXmlToEvents(doc, &events, XmlParserOptions{}).ok());
  return events;
}

// Captures every structured log line emitted while alive (the logger sink is
// process-global; tests restore stderr on destruction).
class LogCapture {
 public:
  LogCapture() {
    obs::Logger::Global().SetSink([this](std::string_view line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.emplace_back(line);
    });
  }
  ~LogCapture() { obs::Logger::Global().SetSink(stderr); }

  std::vector<std::string> Lines() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }
  int CountContaining(const std::string& needle) const {
    std::lock_guard<std::mutex> lock(mu_);
    int n = 0;
    for (const std::string& line : lines_) {
      if (line.find(needle) != std::string::npos) ++n;
    }
    return n;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

QueryRunRecord OkRun(const std::string& text, int64_t events = 100,
                     int64_t results = 3, int64_t feed_us = 500) {
  QueryRunRecord r;
  r.canonical_text = text;
  r.session_id = 1;
  r.worker = 0;
  r.events = events;
  r.results = results;
  r.feed_to_result_us = feed_us;
  return r;
}

// ---------------------------------------------------------------------------
// Id stability and keying.

TEST(QueryRegistryTest, InternIsStableAndKeyedOnText) {
  QueryRegistry registry;
  const int64_t id = registry.Intern("_*.book[author].title");
  EXPECT_GT(id, 0);
  EXPECT_EQ(registry.Intern("_*.book[author].title"), id);
  EXPECT_NE(registry.Intern("_*.title"), id);
  EXPECT_EQ(registry.size(), 2u);
  // RecordRun on an interned text does not mint a new id.
  registry.RecordRun(OkRun("_*.book[author].title"));
  EXPECT_EQ(registry.Intern("_*.book[author].title"), id);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(QueryRegistryTest, IdSurvivesCompiledQueryCacheEviction) {
  // The registry keys on the cache's canonical text, not on the cache slot:
  // evicting and recompiling a query must land its runs on the same row.
  PoolOptions pool_options;
  pool_options.threads = 1;
  EnginePool pool(pool_options);
  QueryRegistry registry;
  pool.SetQueryRegistry(&registry);

  CompiledQueryCache cache(/*capacity=*/1);
  const std::vector<StreamEvent> events = DocEvents();
  auto run = [&](const char* q) {
    auto open = pool.OpenSession(q, &cache);
    ASSERT_TRUE(open.ok());
    (*open)->Feed(events);
    (*open)->Close();
    (*open)->Wait();
  };
  run("_*.title");
  const int64_t id = registry.Intern("_*.title");
  // Thrash the one-slot cache so "_*.title" is evicted and recompiled.
  run("_*.book");
  EXPECT_GE(cache.evictions(), 1);
  run("_*.title");
  EXPECT_EQ(registry.Intern("_*.title"), id);

  // Both runs aggregated on the one row.
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"query\": \"_*.title\", \"runs\": 2"),
            std::string::npos)
      << json;
}

TEST(QueryRegistryTest, CanonicalizationMergesSpellings) {
  // The pool records runs under QueryTemplate::slot_text (parse →
  // round-trip syntax), so a redundantly parenthesised spelling lands on the
  // same row as the plain one.
  PoolOptions pool_options;
  pool_options.threads = 1;
  EnginePool pool(pool_options);
  QueryRegistry registry;
  pool.SetQueryRegistry(&registry);

  CompiledQueryCache cache(8);
  std::string error;
  auto a = cache.Get("_*.title", &error);
  ASSERT_NE(a, nullptr) << error;
  auto b = cache.Get("(_*.title)", &error);
  ASSERT_NE(b, nullptr) << error;
  // Both spellings canonicalise to one text → one cache slot, one row.
  ASSERT_EQ(a->slot_text(0), b->slot_text(0));

  const std::vector<StreamEvent> events = DocEvents();
  for (const char* q : {"_*.title", "(_*.title)"}) {
    auto open = pool.OpenSession(q, &cache);
    ASSERT_TRUE(open.ok());
    (*open)->Feed(events);
    (*open)->Close();
    (*open)->Wait();
  }
  EXPECT_EQ(registry.size(), 1u);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"runs\": 2"), std::string::npos) << json;
}

TEST(QueryRegistryTest, EvictionRetiresIdsButTextRemainsDurableKey) {
  QueryRegistry::Options options;
  options.capacity = 2;
  QueryRegistry registry(options);
  const int64_t a = registry.Intern("a");
  registry.Intern("b");
  registry.Intern("c");  // evicts "a" (least recently run)
  EXPECT_EQ(registry.size(), 2u);
  // Re-interning "a" yields a fresh id: ids are stable for live entries only.
  EXPECT_NE(registry.Intern("a"), a);
}

// ---------------------------------------------------------------------------
// Aggregation.

TEST(QueryRegistryTest, CrossWorkerAggregationMatchesSingleThreadOracle) {
  const std::vector<StreamEvent> events = DocEvents();
  const std::vector<std::string> queries = {"_*.book[author].title",
                                            "_*.title", "_*.book"};
  constexpr int kRounds = 8;

  auto run_all = [&](int threads, QueryRegistry* registry) {
    PoolOptions pool_options;
    pool_options.threads = threads;
    EnginePool pool(pool_options);
    pool.SetQueryRegistry(registry);
    CompiledQueryCache cache(8);
    std::vector<std::shared_ptr<StreamSession>> sessions;
    for (int i = 0; i < kRounds; ++i) {
      for (const std::string& q : queries) {
        auto open = pool.OpenSession(q, &cache);
        ASSERT_TRUE(open.ok());
        (*open)->Feed(events);
        (*open)->Close();
        sessions.push_back(*open);
      }
    }
    for (auto& s : sessions) s->Wait();
  };

  QueryRegistry parallel_registry, oracle_registry;
  run_all(4, &parallel_registry);
  run_all(1, &oracle_registry);

  ASSERT_EQ(parallel_registry.size(), queries.size());
  ASSERT_EQ(oracle_registry.size(), queries.size());
  // Every deterministic aggregate agrees with the single-thread oracle:
  // compare the Prometheus rendering with timing families stripped.
  auto deterministic_lines = [](const QueryRegistry& r) {
    std::vector<std::string> lines;
    std::string text = r.PrometheusText();
    size_t pos = 0;
    while (pos < text.size()) {
      size_t end = text.find('\n', pos);
      if (end == std::string::npos) end = text.size();
      std::string line = text.substr(pos, end - pos);
      pos = end + 1;
      if (line.find("feed_to_result") != std::string::npos) continue;
      if (line.find("sampled") != std::string::npos) continue;
      lines.push_back(std::move(line));
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(deterministic_lines(parallel_registry),
            deterministic_lines(oracle_registry));
}

TEST(QueryRegistryTest, RedAggregatesFoldAcrossRuns) {
  QueryRegistry registry;
  registry.RecordRun(OkRun("q", /*events=*/100, /*results=*/5));
  QueryRunRecord breach = OkRun("q", /*events=*/50, /*results=*/1);
  breach.code = StatusCode::kResourceExhausted;
  breach.truncated = true;
  registry.RecordRun(breach);
  QueryRunRecord error = OkRun("q", /*events=*/10, /*results=*/0);
  error.code = StatusCode::kMalformedInput;
  registry.RecordRun(error);

  const std::string prom = registry.PrometheusText();
  EXPECT_NE(prom.find("spex_query_runs_total{query_id=\"1\"} 3"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("spex_query_breaches_total{query_id=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("spex_query_errors_total{query_id=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("spex_query_truncated_total{query_id=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("spex_query_events_total{query_id=\"1\"} 160"),
            std::string::npos);
  EXPECT_NE(prom.find("spex_query_results_total{query_id=\"1\"} 6"),
            std::string::npos);
  EXPECT_NE(prom.find("spex_query_feed_to_result_us_count{query_id=\"1\"} 3"),
            std::string::npos);
}

TEST(QueryRegistryTest, SortAndTopK) {
  QueryRegistry registry;
  registry.RecordRun(OkRun("busy", /*events=*/1000));
  registry.RecordRun(OkRun("quiet", /*events=*/10));
  QueryRunRecord delayed = OkRun("delayed", /*events=*/100);
  delayed.delay_count = 1;
  delayed.delay_sum = 900;
  delayed.delay_max = 900;
  registry.RecordRun(delayed);

  QueryRegistry::Sort sort;
  ASSERT_TRUE(QueryRegistry::ParseSort("events", &sort));
  std::string text = registry.ToText(sort, /*k=*/1);
  EXPECT_NE(text.find("showing 1 of 3"), std::string::npos) << text;
  EXPECT_NE(text.find("busy"), std::string::npos);
  EXPECT_EQ(text.find("quiet"), std::string::npos);

  ASSERT_TRUE(QueryRegistry::ParseSort("delay", &sort));
  text = registry.ToText(sort, /*k=*/1);
  EXPECT_NE(text.find("delayed"), std::string::npos) << text;
  EXPECT_FALSE(QueryRegistry::ParseSort("bogus", &sort));
}

// ---------------------------------------------------------------------------
// Slow-query log + flight dumps.

TEST(QueryRegistryTest, SlowThresholdEmitsOneStructuredRecord) {
  QueryRegistry registry;
  registry.set_slow_ms(10);
  LogCapture capture;
  registry.RecordRun(OkRun("fast", 100, 1, /*feed_us=*/500));
  EXPECT_EQ(registry.slow_queries(), 0);
  registry.RecordRun(OkRun("slow", 100, 1, /*feed_us=*/50000));
  EXPECT_EQ(registry.slow_queries(), 1);
  EXPECT_EQ(capture.CountContaining("slow query"), 1);
  // logfmt leaves single-token values unquoted.
  EXPECT_EQ(capture.CountContaining("query=slow "), 1);

  // The delay trigger: estimated decision-delay time crosses the bar even
  // though wall time does not.
  registry.set_slow_ms(0);
  registry.set_slow_delay_ms(10);
  QueryRunRecord delayed = OkRun("delayed", /*events=*/100, 1,
                                 /*feed_us=*/20000);  // 20ms / 100ev
  delayed.delay_max = 90;  // est: 90 * 20ms / 100 = 18ms >= 10ms
  registry.RecordRun(delayed);
  EXPECT_EQ(registry.slow_queries(), 2);
  EXPECT_EQ(capture.CountContaining("query=delayed "), 1);
}

TEST(QueryRegistryTest, FailedRunsAlwaysLogAndDumpFlight) {
  QueryRegistry registry;  // thresholds off
  LogCapture capture;
  QueryRunRecord failed = OkRun("doomed");
  failed.code = StatusCode::kResourceExhausted;
  failed.session_id = 7;
  failed.flight_json = "{\"reason\": \"resource_exhausted\", \"frames\": []}";
  registry.RecordRun(failed);

  EXPECT_EQ(registry.slow_queries(), 1);
  EXPECT_EQ(registry.flight_dumps(), 1);
  EXPECT_EQ(capture.CountContaining("slow query"), 1);
  EXPECT_EQ(capture.CountContaining("flight dump"), 1);

  const std::string flights = registry.FlightJson();
  EXPECT_NE(flights.find("\"session\": 7"), std::string::npos) << flights;
  EXPECT_NE(flights.find("\"reason\": \"resource_exhausted\""),
            std::string::npos);
  // Session filter: a different id answers empty, the right one answers.
  EXPECT_EQ(registry.FlightJson(99).find("\"session\": 7"),
            std::string::npos);
  EXPECT_NE(registry.FlightJson(7).find("\"session\": 7"),
            std::string::npos);
}

TEST(QueryRegistryTest, FlightDumpRetentionIsBounded) {
  QueryRegistry::Options options;
  options.flight_capacity = 2;
  QueryRegistry registry(options);
  for (int i = 1; i <= 4; ++i) {
    QueryRunRecord failed = OkRun("q");
    failed.code = StatusCode::kInternal;
    failed.session_id = i;
    failed.flight_json = "{\"frames\": []}";
    registry.RecordRun(failed);
  }
  EXPECT_EQ(registry.flight_dumps(), 4);  // counter counts all
  const std::string flights = registry.FlightJson();
  // Retention keeps the newest two (FIFO eviction).
  EXPECT_EQ(flights.find("\"session\": 1"), std::string::npos);
  EXPECT_EQ(flights.find("\"session\": 2"), std::string::npos);
  EXPECT_NE(flights.find("\"session\": 3"), std::string::npos);
  EXPECT_NE(flights.find("\"session\": 4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end through the pool: a governor breach produces the whole trail.

TEST(QueryRegistryTest, PoolBreachProducesSlowRecordAndFlightDump) {
  PoolOptions pool_options;
  pool_options.threads = 1;
  EnginePool pool(pool_options);
  QueryRegistry registry;
  pool.SetQueryRegistry(&registry);
  LogCapture capture;

  CompiledQueryCache cache(8);
  auto open = pool.OpenSession("_*.title", &cache);
  ASSERT_TRUE(open.ok());
  EngineLimits limits;
  limits.max_events = 1;  // first batch trips the governor
  (*open)->OverrideLimits(limits);
  (*open)->Feed(DocEvents());
  (*open)->Close();
  (*open)->Wait();
  ASSERT_FALSE((*open)->status().ok());

  // Wait() ordered RecordRun before our reads: the full trail exists now.
  EXPECT_EQ(registry.slow_queries(), 1);
  EXPECT_EQ(registry.flight_dumps(), 1);
  EXPECT_EQ(capture.CountContaining("slow query"), 1);
  EXPECT_EQ(capture.CountContaining("flight dump"), 1);

  const int64_t id = registry.Intern("_*.title");
  const std::string flights = registry.FlightJson((*open)->id());
  EXPECT_NE(flights.find("\"query_id\": " + std::to_string(id)),
            std::string::npos)
      << flights;
  EXPECT_NE(flights.find("\"frozen\": true"), std::string::npos);
  const std::string prom = registry.PrometheusText();
  EXPECT_NE(
      prom.find("spex_query_breaches_total{query_id=\"" +
                std::to_string(id) + "\"} 1"),
      std::string::npos)
      << prom;
}

// ---------------------------------------------------------------------------
// Sampling profiler.

TEST(SamplingProfilerTest, PeriodGatesDraws) {
  obs::SamplingProfiler off(obs::SamplingProfiler::Options{0});
  EXPECT_FALSE(off.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(off.ShouldSample());
  EXPECT_EQ(off.sampled_batches(), 0);

  obs::SamplingProfiler every(obs::SamplingProfiler::Options{1});
  int sampled = 0;
  for (int i = 0; i < 10; ++i) sampled += every.ShouldSample() ? 1 : 0;
  EXPECT_EQ(sampled, 10);

  obs::SamplingProfiler sparse(obs::SamplingProfiler::Options{4});
  sampled = 0;
  for (int i = 0; i < 64; ++i) sampled += sparse.ShouldSample() ? 1 : 0;
  EXPECT_EQ(sampled, 16);  // deterministic stride: exactly 1 in 4
  EXPECT_EQ(sparse.sampled_batches(), 16);
}

TEST(SamplingProfilerTest, SampledSharesSumToAtMostOne) {
  ExprPtr query = MustParseRpeq("_*.book[author].title");
  CountingResultSink sink;
  SpexEngine engine(*query, &sink);
  obs::SamplingProfiler sampler(obs::SamplingProfiler::Options{2});
  engine.SetBatchSampler(&sampler);

  const std::vector<StreamEvent> events = DocEvents();
  for (int round = 0; round < 32; ++round) {
    for (size_t i = 0; i < events.size(); i += 4) {
      engine.OnEventBatch(events.data() + i,
                          std::min<size_t>(4, events.size() - i));
    }
  }
  ASSERT_GT(engine.sampled_batches(), 0);
  const obs::ProfileReport report = engine.SampledProfile();
  EXPECT_TRUE(report.timed);
  double share_sum = 0;
  for (const obs::ProfileNode& node : report.nodes) {
    EXPECT_GE(node.time_share, 0.0);
    EXPECT_LE(node.time_share, 1.0);
    share_sum += node.time_share;
  }
  EXPECT_LE(share_sum, 1.0 + 1e-9);
  EXPECT_GT(share_sum, 0.0);
}

TEST(SamplingProfilerTest, FullCoverageSamplingMatchesFullProfile) {
  // At period 1 every batch takes the instrumented path, so the sampled
  // delivery counts must equal the full profiler's exactly — the timing
  // estimator's attribution error comes only from batches NOT sampled.
  ExprPtr query = MustParseRpeq("_*.book[author].title");
  const std::vector<StreamEvent> events = DocEvents();

  CountingResultSink sampled_sink;
  SpexEngine sampled_engine(*query, &sampled_sink);
  obs::SamplingProfiler sampler(obs::SamplingProfiler::Options{1});
  sampled_engine.SetBatchSampler(&sampler);

  EngineOptions profile_options;
  profile_options.profile = true;
  CountingResultSink full_sink;
  SpexEngine full_engine(*query, &full_sink, profile_options);

  for (size_t i = 0; i < events.size(); i += 4) {
    const size_t n = std::min<size_t>(4, events.size() - i);
    sampled_engine.OnEventBatch(events.data() + i, n);
    full_engine.OnEventBatch(events.data() + i, n);
  }
  EXPECT_EQ(sampled_sink.results(), full_sink.results());

  const obs::ProfileReport sampled = sampled_engine.SampledProfile();
  const obs::ProfileReport full = full_engine.Profile();
  ASSERT_EQ(sampled.nodes.size(), full.nodes.size());
  for (size_t i = 0; i < full.nodes.size(); ++i) {
    EXPECT_EQ(sampled.nodes[i].name, full.nodes[i].name);
    EXPECT_EQ(sampled.nodes[i].deliveries, full.nodes[i].deliveries)
        << sampled.nodes[i].name;
    EXPECT_EQ(sampled.nodes[i].messages_in, full.nodes[i].messages_in);
  }
}

TEST(SamplingProfilerTest, SampledAttributionReachesRegistry) {
  PoolOptions pool_options;
  pool_options.threads = 1;
  pool_options.sampling_period = 1;  // sample every batch
  pool_options.engine.batch_size = 4;
  EnginePool pool(pool_options);
  QueryRegistry registry;
  pool.SetQueryRegistry(&registry);

  CompiledQueryCache cache(8);
  auto open = pool.OpenSession("_*.book[author].title", &cache);
  ASSERT_TRUE(open.ok());
  (*open)->Feed(DocEvents());
  (*open)->Close();
  (*open)->Wait();
  ASSERT_TRUE((*open)->status().ok());

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"sampling\": {\"batches\": "), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"hot_nodes\": [{"), std::string::npos) << json;
  const std::string prom = registry.PrometheusText();
  EXPECT_NE(prom.find("spex_query_sampled_batches_total"), std::string::npos);
}

// A population session samples like any other, but its shared network
// cannot be attributed to one slot: every slot gets a QueryRunRecord with
// the per-query fields, and hot nodes stay on one-slot sessions.
TEST(SamplingProfilerTest, PopulationRecordsOneRunPerSlotWithoutHotNodes) {
  PoolOptions pool_options;
  pool_options.threads = 1;
  pool_options.sampling_period = 1;  // sample every batch
  pool_options.engine.batch_size = 4;
  EnginePool pool(pool_options);
  QueryRegistry registry;
  pool.SetQueryRegistry(&registry);

  CompiledQueryCache cache(8);
  StatusOr<std::shared_ptr<const QueryTemplate>> population = cache.GetMulti(
      {"_*.book[author].title", "_*.book.title", "_*.author"});
  ASSERT_TRUE(population.ok());
  std::shared_ptr<StreamSession> session = pool.OpenSession(*population);
  session->Feed(DocEvents());
  session->Close();
  session->Wait();
  ASSERT_TRUE(session->status().ok());

  EXPECT_EQ(registry.size(), 3u);
  const std::string json = registry.ToJson();
  for (int s = 0; s < (*population)->slot_count(); ++s) {
    EXPECT_NE(json.find((*population)->slot_text(s)), std::string::npos)
        << json;
  }
  EXPECT_EQ(json.find("\"hot_nodes\": [{"), std::string::npos) << json;
  EXPECT_GT(pool.metrics().Collect().Value("spex_pool_sampled_batches"), 0);
}

// ---------------------------------------------------------------------------
// FlightRecorder ring.

TEST(FlightRecorderTest, RingIsBoundedAndOrdered) {
  obs::FlightRecorder recorder(/*capacity=*/3);
  for (int i = 1; i <= 5; ++i) {
    obs::FlightFrame frame;
    frame.events = i * 10;
    recorder.Record(frame, /*steady_ns=*/i * 1000000);
  }
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.total_recorded(), 5);
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"recorded\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped\": 2"), std::string::npos);
  // Oldest-first frames: 30, 40, 50 survive; 10 and 20 were overwritten.
  EXPECT_EQ(json.find("\"events\": 10"), std::string::npos);
  EXPECT_LT(json.find("\"events\": 30"), json.find("\"events\": 50"));
}

TEST(FlightRecorderTest, FreezeIsFirstWinsAndStopsRecording) {
  obs::FlightRecorder recorder(4);
  obs::FlightFrame frame;
  frame.events = 1;
  recorder.Record(frame, 0);
  EXPECT_TRUE(recorder.Freeze("resource_exhausted"));
  EXPECT_FALSE(recorder.Freeze("deadline_exceeded"));  // first reason wins
  EXPECT_EQ(recorder.reason(), "resource_exhausted");
  frame.events = 2;
  recorder.Record(frame, 1000);  // no-op after freeze
  EXPECT_EQ(recorder.size(), 1u);
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"reason\": \"resource_exhausted\""),
            std::string::npos);
  EXPECT_NE(json.find("\"frozen\": true"), std::string::npos);
  EXPECT_EQ(json.find("\"events\": 2"), std::string::npos);
}

}  // namespace
}  // namespace spex
