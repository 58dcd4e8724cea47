// Tests for the concurrent runtime (src/runtime): CompiledQueryCache
// canonicalization / LRU behavior, EnginePool session correctness against
// the single-threaded engine (byte-for-byte, in document order), bounded
// queues, shutdown finalization, pool metrics — plus the debug-mode
// thread-affinity assertions.  The whole file is run under TSan in CI.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/dom_evaluator.h"
#include "runtime/engine_pool.h"
#include "runtime/query_cache.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "xml/dom.h"
#include "xml/generators.h"
#include "xml/xml_parser.h"

namespace spex {
namespace {

std::vector<StreamEvent> Doc(uint64_t seed, int max_depth = 6,
                             int64_t max_elements = 80) {
  RandomTreeOptions opts;
  opts.max_depth = max_depth;
  opts.max_children = 3;
  opts.max_elements = max_elements;
  opts.labels = {"a", "b", "c"};
  opts.root_label = "a";
  return GenerateToVector(
      [&](EventSink* sink) { GenerateRandomTree(seed, opts, sink); });
}

// ---------------------------------------------------------------------------
// CompiledQueryCache

TEST(QueryCacheTest, CanonicalizesBeforeLookup) {
  CompiledQueryCache cache(8);
  std::string error;
  auto a = cache.Get("_*.a[b].c", &error);
  ASSERT_NE(a, nullptr) << error;
  // Different concrete spellings of the same query share one entry.
  auto b = cache.Get("_* . a[(b)] . (c)", &error);
  ASSERT_NE(b, nullptr) << error;
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(QueryCacheTest, EvictsLeastRecentlyUsed) {
  CompiledQueryCache cache(2);
  std::string error;
  auto a = cache.Get("a", &error);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(cache.Get("b", &error), nullptr);
  // Touch "a" so "b" becomes the LRU entry, then insert a third query.
  ASSERT_NE(cache.Get("a", &error), nullptr);
  ASSERT_NE(cache.Get("c", &error), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  // "a" survived (hit), "b" was evicted (miss rebuilds it).
  const int64_t hits_before = cache.hits();
  auto a2 = cache.Get("a", &error);
  EXPECT_EQ(a2.get(), a.get());
  EXPECT_EQ(cache.hits(), hits_before + 1);
  const int64_t misses_before = cache.misses();
  ASSERT_NE(cache.Get("b", &error), nullptr);
  EXPECT_EQ(cache.misses(), misses_before + 1);
  // The evicted template stayed usable through the caller's shared_ptr.
  EXPECT_EQ(a->slot_text(0), "a");
}

TEST(QueryCacheTest, FailuresAreReportedAndNotCached) {
  CompiledQueryCache cache(8);
  std::string error;
  EXPECT_EQ(cache.Get("a..b", &error), nullptr);
  EXPECT_NE(error.find("parse error"), std::string::npos) << error;
  // A validation (not syntax) failure: a preceding step inside a qualifier
  // body must be the body's last step.
  error.clear();
  EXPECT_EQ(cache.Get("a[<<b.c]", &error), nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 0);
}

TEST(QueryCacheTest, TemplateInstantiationMatchesDirectCompile) {
  CompiledQueryCache cache(8);
  std::string error;
  auto t = cache.Get("_*.a[b].c", &error);
  ASSERT_NE(t, nullptr) << error;
  const std::vector<StreamEvent> events = Doc(7);
  ExprPtr query = MustParseRpeq("_*.a[b].c");
  SerializingResultSink direct_sink;
  SpexEngine direct(*query, &direct_sink);
  SerializingResultSink template_sink;
  SpexEngine from_template(t, &template_sink);
  for (const StreamEvent& e : events) {
    direct.OnEvent(e);
    from_template.OnEvent(e);
  }
  EXPECT_EQ(template_sink.results(), direct_sink.results());
  EXPECT_EQ(from_template.ComputeStats().network_degree,
            direct.ComputeStats().network_degree);
  EXPECT_EQ(t->shared_degree(), direct.ComputeStats().network_degree);
}

TEST(QueryCacheTest, ConcurrentGetsShareOneTemplate) {
  CompiledQueryCache cache(32);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const QueryTemplate>> seen(kThreads);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&cache, &seen, i] {
        std::string error;
        for (int round = 0; round < 50; ++round) {
          seen[static_cast<size_t>(i)] = cache.Get("_*.a[b].c", &error);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ASSERT_NE(seen[0], nullptr);
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(seen[size_t(i)], seen[0]);
  EXPECT_EQ(cache.size(), 1u);
  // Concurrent first misses may each build (by design — build runs outside
  // the lock) but every later round is a hit on the single resident entry.
  EXPECT_GE(cache.hits(), kThreads * 50 - kThreads);
}

// ---------------------------------------------------------------------------
// EnginePool

TEST(EnginePoolTest, SingleSessionMatchesSingleThreadedRun) {
  const std::vector<StreamEvent> events = Doc(3);
  ExprPtr query = MustParseRpeq("_*.a[b]");
  const std::vector<std::string> expected = EvaluateToStrings(*query, events);

  PoolOptions options;
  options.threads = 2;
  EnginePool pool(options);
  std::string error;
  auto t = QueryTemplate::Build(*query, &error);
  ASSERT_NE(t, nullptr) << error;
  auto session = pool.OpenSession(t);
  session->Feed(events);
  session->Close();
  EXPECT_EQ(session->Wait(), expected);
  EXPECT_EQ(session->result_count(),
            static_cast<int64_t>(expected.size()));
  EXPECT_EQ(session->stats().events_processed,
            static_cast<int64_t>(events.size()));
}

// The PR-4 concurrency stress: 12 sessions (4 documents x 3 queries)
// through one shared CompiledQueryCache on 4 workers, each document split
// into small interleaved batches — every session's output must be
// byte-for-byte what the single-threaded engine produces for its
// (document, query) pair, in document order.  Several rounds shake out
// different interleavings; run under TSan in CI.
TEST(EnginePoolTest, ManySessionsSharedCacheMatchSingleThreaded) {
  const std::vector<std::string> queries = {"_*.a[b].c", "_*.(b|c)", "a._*"};
  std::vector<std::vector<StreamEvent>> docs;
  for (uint64_t seed = 0; seed < 4; ++seed) docs.push_back(Doc(seed));

  // Single-threaded ground truth.
  std::vector<std::vector<std::string>> expected;  // [doc * queries + q]
  for (const auto& doc : docs) {
    for (const std::string& q : queries) {
      ExprPtr query = MustParseRpeq(q);
      expected.push_back(EvaluateToStrings(*query, doc));
    }
  }

  CompiledQueryCache cache(16);
  for (int round = 0; round < 5; ++round) {
    PoolOptions options;
    options.threads = 4;
    options.queue_capacity = 4;
    EnginePool pool(options);
    std::vector<std::shared_ptr<StreamSession>> sessions;
    for (const auto& doc : docs) {
      auto batch =
          std::make_shared<const std::vector<StreamEvent>>(doc);
      for (const std::string& q : queries) {
        std::string error;
        auto session = pool.OpenSession(q, &cache, &error);
        ASSERT_NE(session, nullptr) << error;
        // Alternate whole-batch and chunked feeding so batch boundaries
        // land everywhere in the document.
        if ((sessions.size() + static_cast<size_t>(round)) % 2 == 0) {
          session->Feed(batch);
        } else {
          const size_t chunk = 7;
          for (size_t begin = 0; begin < doc.size(); begin += chunk) {
            const size_t end = std::min(doc.size(), begin + chunk);
            session->Feed(std::vector<StreamEvent>(
                doc.begin() + static_cast<std::ptrdiff_t>(begin),
                doc.begin() + static_cast<std::ptrdiff_t>(end)));
          }
        }
        session->Close();
        sessions.push_back(std::move(session));
      }
    }
    ASSERT_GE(sessions.size(), 8u);
    for (size_t i = 0; i < sessions.size(); ++i) {
      EXPECT_EQ(sessions[i]->Wait(), expected[i])
          << "round " << round << " session " << i;
    }
  }
  // Every (doc, query) pair after the first use of each query hit the cache.
  EXPECT_EQ(cache.misses(), static_cast<int64_t>(queries.size()));
  EXPECT_GE(cache.hits(),
            static_cast<int64_t>(5 * docs.size() * queries.size() -
                                 queries.size()));
}

TEST(EnginePoolTest, BoundedQueueNeverExceedsCapacityAndBackpressures) {
  PoolOptions options;
  options.threads = 1;
  options.queue_capacity = 2;
  EnginePool pool(options);
  std::string error;
  auto t = QueryTemplate::Build(*MustParseRpeq("_*.b"), &error);
  ASSERT_NE(t, nullptr) << error;
  const std::vector<StreamEvent> doc = Doc(11, 8, 200);
  auto session = pool.OpenSession(t);
  // Many tiny batches from one producer against a capacity-2 queue.
  const size_t chunk = 5;
  for (size_t begin = 0; begin < doc.size(); begin += chunk) {
    const size_t end = std::min(doc.size(), begin + chunk);
    session->Feed(std::vector<StreamEvent>(
        doc.begin() + static_cast<std::ptrdiff_t>(begin),
        doc.begin() + static_cast<std::ptrdiff_t>(end)));
  }
  session->Close();
  ExprPtr query = MustParseRpeq("_*.b");
  EXPECT_EQ(session->Wait(), EvaluateToStrings(*query, doc));
  // The bound held: the queue-depth high-water mark never passed capacity.
  const obs::MetricsSnapshot snap = pool.metrics().Collect();
  for (const obs::MetricSample& s : snap.samples) {
    if (s.name == "spex_pool_queue_depth") {
      EXPECT_LE(s.max, static_cast<int64_t>(options.queue_capacity));
    }
  }
}

TEST(EnginePoolTest, MetricsAreConsistentAfterDrain) {
  PoolOptions options;
  options.threads = 3;
  EnginePool pool(options);
  CompiledQueryCache cache(8);
  cache.RegisterCollectors(&pool.metrics());
  const std::vector<StreamEvent> doc = Doc(5);
  std::vector<std::shared_ptr<StreamSession>> sessions;
  constexpr int kSessions = 9;
  for (int i = 0; i < kSessions; ++i) {
    std::string error;
    auto session = pool.OpenSession("_*.c", &cache, &error);
    ASSERT_NE(session, nullptr) << error;
    session->Feed(doc);
    session->Close();
    sessions.push_back(std::move(session));
  }
  int64_t results = 0;
  for (auto& s : sessions) {
    s->Wait();
    results += s->result_count();
  }
  const obs::MetricsSnapshot snap = pool.metrics().Collect();
  EXPECT_EQ(snap.Value("spex_pool_workers"), 3);
  EXPECT_EQ(snap.Value("spex_pool_sessions_opened"), kSessions);
  EXPECT_EQ(snap.Value("spex_pool_sessions_finished"), kSessions);
  EXPECT_EQ(snap.Value("spex_pool_batches_submitted"),
            snap.Value("spex_pool_batches_completed"));
  EXPECT_EQ(snap.Value("spex_pool_events_processed"),
            static_cast<int64_t>(kSessions * doc.size()));
  EXPECT_EQ(snap.Value("spex_pool_results_total"), results);
  EXPECT_EQ(snap.Value("spex_query_cache_misses"), 1);
  EXPECT_EQ(snap.Value("spex_query_cache_hits"), kSessions - 1);
}

TEST(EnginePoolTest, ShutdownFinalizesUnclosedSessions) {
  std::shared_ptr<StreamSession> session;
  const std::vector<StreamEvent> doc = Doc(2);
  {
    PoolOptions options;
    options.threads = 2;
    EnginePool pool(options);
    std::string error;
    auto t = QueryTemplate::Build(*MustParseRpeq("_*.b"), &error);
    ASSERT_NE(t, nullptr) << error;
    session = pool.OpenSession(t);
    session->Feed(doc);
    // No Close(): pool destruction must drain the queue and finalize the
    // session's engine on its own worker.
  }
  ExprPtr query = MustParseRpeq("_*.b");
  EXPECT_EQ(session->Wait(), EvaluateToStrings(*query, doc));
}

TEST(EnginePoolTest, SessionsFromManyProducerThreads) {
  PoolOptions options;
  options.threads = 4;
  options.queue_capacity = 2;
  EnginePool pool(options);
  CompiledQueryCache cache(8);
  const auto doc_a = Doc(21);
  const auto doc_b = Doc(22);
  ExprPtr query = MustParseRpeq("_*.a[b]");
  const std::vector<std::string> expect_a = EvaluateToStrings(*query, doc_a);
  const std::vector<std::string> expect_b = EvaluateToStrings(*query, doc_b);
  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto& doc = p % 2 == 0 ? doc_a : doc_b;
      const auto& expected = p % 2 == 0 ? expect_a : expect_b;
      for (int round = 0; round < 3; ++round) {
        std::string error;
        auto session = pool.OpenSession("_*.a[b]", &cache, &error);
        ASSERT_NE(session, nullptr) << error;
        session->Feed(doc);
        session->Close();
        EXPECT_EQ(session->Wait(), expected) << "producer " << p;
      }
    });
  }
  for (std::thread& t : producers) t.join();
}

// ---------------------------------------------------------------------------
// Thread-affinity assertions (debug builds only; compiled out in NDEBUG).
// TSan intercepts abort() with its own report, so the death tests only run
// ---------------------------------------------------------------------------
// Fault isolation (DESIGN.md §10)

// A session that breaches its limits is quarantined and reports a structured
// partial result; other sessions on the same pool are untouched.
TEST(EnginePoolTest, BreachedSessionIsQuarantinedOthersKeepRunning) {
  PoolOptions options;
  options.threads = 2;
  EnginePool pool(options);
  std::string error;
  auto t = QueryTemplate::Build(*MustParseRpeq("_*.b"), &error);
  ASSERT_NE(t, nullptr) << error;
  const std::vector<StreamEvent> doc = Doc(3);

  auto failing = pool.OpenSession(t);
  EngineLimits limits;
  limits.max_events = 5;  // the random doc has far more events
  failing->OverrideLimits(limits);
  auto healthy = pool.OpenSession(t);

  failing->Feed(doc);
  healthy->Feed(doc);
  failing->Close();
  healthy->Close();

  failing->Wait();
  EXPECT_EQ(failing->status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(failing->truncated());
  EXPECT_LE(failing->certain_result_count(), failing->result_count());

  ExprPtr query = MustParseRpeq("_*.b");
  EXPECT_EQ(healthy->Wait(), EvaluateToStrings(*query, doc));
  EXPECT_TRUE(healthy->status().ok());
  EXPECT_FALSE(healthy->truncated());

  const obs::MetricsSnapshot snap = pool.metrics().Collect();
  int64_t failed_resource_exhausted = -1;
  for (const obs::MetricSample& sample : snap.samples) {
    if (sample.name == "spex_pool_sessions_failed" &&
        sample.labels ==
            obs::Labels{{"reason", "resource_exhausted"}}) {
      failed_resource_exhausted = sample.value;
    }
  }
  EXPECT_EQ(failed_resource_exhausted, 1);
}

// Satellite regression: Wait() on a failed session must be released by the
// quarantine itself — no Close() required, and it must never hang.
TEST(EnginePoolTest, WaitWithoutCloseReturnsAfterFailure) {
  PoolOptions options;
  EnginePool pool(options);
  std::string error;
  auto t = QueryTemplate::Build(*MustParseRpeq("_*.b"), &error);
  ASSERT_NE(t, nullptr) << error;
  auto session = pool.OpenSession(t);
  EngineLimits limits;
  limits.max_events = 3;
  session->OverrideLimits(limits);
  session->Feed(Doc(4));
  // No Close(): the worker's quarantine finalizes the session and releases
  // the waiter.
  session->Wait();
  EXPECT_EQ(session->status().code(), StatusCode::kResourceExhausted);
}

// Satellite regression: Close() after the failure already finalized the
// session is an idempotent no-op (and a second Wait sees the same state).
TEST(EnginePoolTest, CloseAfterFailureIsIdempotent) {
  PoolOptions options;
  EnginePool pool(options);
  std::string error;
  auto t = QueryTemplate::Build(*MustParseRpeq("_*.b"), &error);
  ASSERT_NE(t, nullptr) << error;
  auto session = pool.OpenSession(t);
  EngineLimits limits;
  limits.max_events = 3;
  session->OverrideLimits(limits);
  session->Feed(Doc(4));
  session->Wait();  // quarantine released it
  const Status first = session->status();
  session->Close();
  session->Close();  // idempotent
  session->Wait();
  EXPECT_EQ(session->status(), first);
  EXPECT_EQ(session->status().code(), StatusCode::kResourceExhausted);
}

// Abort() seals the partial stream with the producer's status: the certain
// prefix stays, the open elements are closed virtually.
TEST(EnginePoolTest, AbortSealsPartialStreamWithCallerStatus) {
  PoolOptions options;
  EnginePool pool(options);
  std::string error;
  auto t = QueryTemplate::Build(*MustParseRpeq("a.b"), &error);
  ASSERT_NE(t, nullptr) << error;
  auto session = pool.OpenSession(t);
  // A prefix: <a><b/><b> ... never closed.
  session->Feed(std::vector<StreamEvent>{
      StreamEvent::StartDocument(), StreamEvent::StartElement("a"),
      StreamEvent::StartElement("b"), StreamEvent::EndElement("b"),
      StreamEvent::StartElement("b")});
  session->Abort(Status::MalformedInput("client hung up"));
  const std::vector<std::string>& results = session->Wait();
  EXPECT_EQ(session->status().code(), StatusCode::kMalformedInput);
  EXPECT_EQ(session->status().message(), "client hung up");
  EXPECT_TRUE(session->truncated());
  // The virtual close seals the dangling <b>: both children of a match a.b
  // on the closed document, but only the first was complete before the
  // truncation point — the second is speculative.
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], "<b></b>");
  EXPECT_EQ(results[1], "<b></b>");
  EXPECT_EQ(session->certain_result_count(), 1);
}

// Pool teardown with an incomplete, unclosed stream: the session is sealed
// as kCancelled rather than left hanging (complete streams stay kOk — see
// ShutdownFinalizesUnclosedSessions above).
TEST(EnginePoolTest, ShutdownCancelsIncompleteStreams) {
  std::shared_ptr<StreamSession> session;
  {
    EnginePool pool(PoolOptions{});
    std::string error;
    auto t = QueryTemplate::Build(*MustParseRpeq("a.b"), &error);
    ASSERT_NE(t, nullptr) << error;
    session = pool.OpenSession(t);
    session->Feed(std::vector<StreamEvent>{StreamEvent::StartDocument(),
                                           StreamEvent::StartElement("a"),
                                           StreamEvent::StartElement("b")});
    // No Close(), no end-document: destruction must seal it.
  }
  session->Wait();
  EXPECT_EQ(session->status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(session->truncated());
  EXPECT_EQ(session->result_count(), 1);  // the virtually sealed <b>
  EXPECT_EQ(session->certain_result_count(), 0);
}

// The events a governed run consumes before `limits` (max_events /
// max_depth) breach: the per-event governor's admission rule.
std::vector<StreamEvent> ConsumedPrefix(const std::vector<StreamEvent>& events,
                                        const EngineLimits& limits) {
  std::vector<StreamEvent> prefix;
  int depth = 0;
  for (const StreamEvent& e : events) {
    if (limits.max_events > 0 &&
        static_cast<int64_t>(prefix.size()) >= limits.max_events) {
      break;
    }
    if (e.kind == EventKind::kStartElement) {
      if (limits.max_depth > 0 && depth >= limits.max_depth) break;
      ++depth;
    } else if (e.kind == EventKind::kEndElement) {
      --depth;
    }
    prefix.push_back(e);
  }
  return prefix;
}

// DOM oracle over a consumed prefix, virtually closed (the closed-world
// sealing FinalizeTruncated performs).
std::vector<std::string> PrefixOracle(const Expr& query,
                                      std::vector<StreamEvent> prefix) {
  std::vector<std::string> open;
  for (const StreamEvent& e : prefix) {
    if (e.kind == EventKind::kStartElement) open.push_back(e.name);
    if (e.kind == EventKind::kEndElement) open.pop_back();
  }
  if (prefix.empty() || prefix.back().kind != EventKind::kEndDocument) {
    while (!open.empty()) {
      prefix.push_back(StreamEvent::EndElement(open.back()));
      open.pop_back();
    }
    prefix.push_back(StreamEvent::EndDocument());
  }
  Document dom;
  std::string error;
  EXPECT_TRUE(EventsToDocument(prefix, &dom, &error)) << error;
  return DomEvaluateToStrings(query, dom);
}

// A governed population (every pool session tracks open elements) takes
// the batch sweep: a qualifier-free three-query population under max_events
// and max_depth limits gives every slot the same results, certain prefix
// and breach status at batch size 1 and 64, and the sealed results are the
// DOM oracle over the consumed prefix.
TEST(EnginePoolTest, GovernedPopulationBatchSweepMatchesPerEvent) {
  CompiledQueryCache cache(4);
  StatusOr<std::shared_ptr<const QueryTemplate>> population =
      cache.GetMulti({"_*.b", "a._", "_*.a.c"});
  ASSERT_TRUE(population.ok()) << population.status().message();
  const QueryTemplate& t = **population;
  ASSERT_EQ(t.slot_count(), 3);

  std::vector<EngineLimits> limit_cases(4);
  limit_cases[0].max_events = 37;
  limit_cases[1].max_depth = 3;
  limit_cases[2].max_events = 90;
  limit_cases[2].max_depth = 4;
  limit_cases[3].max_events = 1 << 20;  // never breaches

  struct Run {
    Status status;
    std::vector<std::vector<std::string>> results;
    std::vector<int64_t> certain;
  };
  auto run = [&](int batch_size, const EngineLimits& limits,
                 const std::vector<StreamEvent>& events) {
    PoolOptions options;
    options.threads = 1;
    options.engine.batch_size = batch_size;
    options.engine.limits = limits;
    EnginePool pool(options);
    std::shared_ptr<StreamSession> session = pool.OpenSession(*population);
    session->Feed(events);
    session->Close();
    session->Wait();
    Run out;
    out.status = session->status();
    for (int s = 0; s < t.slot_count(); ++s) {
      out.results.push_back(session->subscription_results(s));
      out.certain.push_back(session->subscription_certain_count(s));
    }
    return out;
  };

  int breached = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<StreamEvent> events = Doc(seed);
    for (size_t c = 0; c < limit_cases.size(); ++c) {
      const EngineLimits& limits = limit_cases[c];
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " limits#" + std::to_string(c));
      const Run per_event = run(1, limits, events);
      const Run batched = run(64, limits, events);
      EXPECT_EQ(batched.status.code(), per_event.status.code());
      EXPECT_EQ(batched.status.message(), per_event.status.message());
      if (!per_event.status.ok()) ++breached;
      const std::vector<StreamEvent> prefix = ConsumedPrefix(events, limits);
      for (int s = 0; s < t.slot_count(); ++s) {
        SCOPED_TRACE("slot=" + std::to_string(s) + " query=" + t.slot_text(s));
        const size_t slot = static_cast<size_t>(s);
        EXPECT_EQ(batched.results[slot], per_event.results[slot]);
        EXPECT_EQ(batched.certain[slot], per_event.certain[slot]);
        const std::vector<std::string> oracle =
            PrefixOracle(t.slot_expr(s), prefix);
        EXPECT_EQ(batched.results[slot], oracle);
        ASSERT_LE(batched.certain[slot],
                  static_cast<int64_t>(oracle.size()));
        if (per_event.status.ok()) {
          EXPECT_EQ(batched.certain[slot],
                    static_cast<int64_t>(oracle.size()));
        }
      }
    }
  }
  EXPECT_GT(breached, 0);  // the limits really cut streams short
}

TEST(QueryCacheTest, StatusOverloadClassifiesParseErrors) {
  CompiledQueryCache cache(4);
  StatusOr<std::shared_ptr<const QueryTemplate>> bad = cache.Get("a..b");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kMalformedInput);
  EXPECT_FALSE(bad.status().message().empty());
  StatusOr<std::shared_ptr<const QueryTemplate>> good = cache.Get("a.b");
  ASSERT_TRUE(good.ok());
  EXPECT_NE(*good, nullptr);
}

// in non-TSan debug builds (the asan preset covers them in CI).

#if defined(__SANITIZE_THREAD__)
#define SPEX_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPEX_TSAN 1
#endif
#endif

#if !defined(NDEBUG) && !defined(SPEX_TSAN)

using ThreadAffinityDeathTest = ::testing::Test;

TEST(ThreadAffinityDeathTest, CrossThreadDeliverAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SerializingResultSink sink;
        ExprPtr query = MustParseRpeq("a.b");
        SpexEngine engine(*query, &sink);
        // Binds the network's affinity to this thread...
        engine.OnEvent(StreamEvent::StartDocument());
        // ...so a delivery from any other thread must abort.  EndElement
        // skips symbol interning, reaching Network::Deliver directly.
        std::thread other(
            [&engine] { engine.OnEvent(StreamEvent::EndElement("a")); });
        other.join();
      },
      "SPEX_DCHECK_THREAD: spex::Network");
}

TEST(ThreadAffinityDeathTest, CrossThreadInternAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SymbolTable table;
        table.Intern("a");  // binds to this thread
        std::thread other([&table] { table.Intern("b"); });
        other.join();
      },
      "SPEX_DCHECK_THREAD: spex::SymbolTable");
}

TEST(ThreadAffinityDeathTest, StampedEventsRejectedByPoolSessions) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PoolOptions options;
        EnginePool pool(options);
        std::string error;
        auto t = QueryTemplate::Build(*MustParseRpeq("a"), &error);
        auto session = pool.OpenSession(t);
        // Events stamped by some other run's symbol table must not enter a
        // pool session (its engine owns a private table).
        StreamEvent stamped = StreamEvent::StartElement("a");
        stamped.label = 42;
        session->Feed(std::vector<StreamEvent>{
            StreamEvent::StartDocument(), stamped});
        session->Close();
        session->Wait();
      },
      "foreign symbol stamp");
}

#endif  // !NDEBUG && !SPEX_TSAN

}  // namespace
}  // namespace spex
