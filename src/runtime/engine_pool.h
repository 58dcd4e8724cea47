// Concurrent evaluation runtime: a pool of engine workers (DESIGN.md §9).
//
// The SPEX engine is strictly single-threaded per run ("one message in the
// network at a time", §III; thread-local formula arena, run-owned symbol
// table).  The pool scales the system *horizontally* without touching that
// invariant: N worker threads, each with a bounded MPSC task queue, and
// every StreamSession — one document stream evaluated against one compiled
// query template (one query, or a population sharing one network) — pinned
// to exactly one worker.  The session's engine is constructed, driven and
// destroyed on that worker, so all thread-local discipline from the
// single-threaded design carries over unchanged (and the debug
// thread-affinity asserts of base/thread_check.h verify it).
//
// Data flow:
//   * OpenSession(template) pins a session to a worker (round-robin).
//   * Feed(batch) enqueues a shared, immutable slice of document events
//     onto the pinned worker's queue.  The queue is bounded: when the
//     worker falls behind, Feed blocks — backpressure, not unbounded
//     buffering.  Batches of one session are processed in submission
//     order by one worker, so per-session results come back in document
//     order, byte-for-byte identical to a single-threaded run.
//   * Close() marks the end of input; Wait() blocks until the worker has
//     processed everything and returns the serialized result fragments.
//
// Event batches are shared const vectors so one parsed document can fan
// out to many sessions (many queries) without copying.  They must carry
// *unstamped* labels (StreamEvent::label == kNoSymbol): each session owns
// a private symbol table on its worker, and symbols from any other table
// would alias wrongly (debug builds check).
//
// Pool-wide throughput/queue meters are exported through metrics() using
// the thread-safe instruments of obs/metrics.h; combine with a
// CompiledQueryCache (query_cache.h) sharing one registry for the full
// serving picture.

#ifndef SPEX_RUNTIME_ENGINE_POOL_H_
#define SPEX_RUNTIME_ENGINE_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/status.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sampling_profiler.h"
#include "runtime/query_cache.h"
#include "spex/engine.h"

namespace spex {

class EnginePool;
class QueryRegistry;

// On-demand capture hook for the admin plane (runtime/admin_server.h): when
// installed via EnginePool::SetCaptureSink, the workers consult it around
// every session's engine lifetime.  OnSessionStart may upgrade the engine
// options of a session whose engine is about to be built (observe=full /
// profile for a capture window) and returns whether it did; OnSessionEnd is
// invoked — only for captured sessions — right before that engine is torn
// down, with the engine still alive, so traces and profiles can be merged
// out.  Both run on worker threads and must be thread-safe.
class SessionCaptureSink {
 public:
  virtual ~SessionCaptureSink() = default;
  virtual bool OnSessionStart(int worker, EngineOptions* options) = 0;
  virtual void OnSessionEnd(int worker, const std::string& query,
                            SpexEngine* engine) = 0;
};

// Point-in-time view of one session for the admin plane's /sessions
// endpoint; published by the worker at batch boundaries through relaxed
// atomics, so readers see a recent (not instantaneous) state.
struct LiveSessionInfo {
  enum State { kStreaming = 0, kFinished = 1, kFailed = 2 };
  int64_t events = 0;           // events fed through the engine so far
  int64_t results = 0;          // results emitted so far
  int64_t buffered_events = 0;  // output-buffer occupancy (undecided)
  int64_t buffered_bytes = 0;
  State state = kStreaming;
  StatusCode status_code = StatusCode::kOk;  // failure code when kFailed
};

struct PoolOptions {
  // Worker thread count (values < 1 are clamped to 1).
  int threads = 1;
  // Per-worker task queue bound, in batches; Feed blocks when the pinned
  // worker's queue is full.
  size_t queue_capacity = 64;
  // Base engine options for every session.  `symbols` is ignored (each
  // session owns a private table on its worker thread); callbacks placed
  // here (progress) run on worker threads and must be thread-safe.
  // `engine.limits` applies to every session; `track_open_elements` is
  // forced on so failed/aborted sessions can always be sealed.
  EngineOptions engine;
  // Chaos/test hook, invoked on the worker thread immediately before each
  // batch is processed (see runtime/fault_injector.h for the seeded stall
  // injector that plugs in here).  Must be thread-safe.
  std::function<void(int worker)> before_batch;
  // Always-on sampling profiler (DESIGN.md §13): 1 of every
  // `sampling_period` delivered event batches takes the instrumented
  // delivery path and folds per-node self-times into the query registry.
  // <= 0 disables sampling.
  int sampling_period = 256;
  // Flight-recorder ring size per session (batch-boundary snapshots kept
  // for post-mortem dumps).
  size_t flight_frames = 32;
};

// One document stream evaluated against one QueryTemplate — a single query
// or a whole standing population (K slots, DESIGN.md §14) — on one pool
// worker.  Created by EnginePool::OpenSession; thread-safe for a single
// producer (Feed/Close/Abort from one thread at a time) plus any number of
// Wait()ers.  Sessions must be Close()d and must not outlive the pool.
//
// Failure model (DESIGN.md §10): a session whose engine fails — governor
// breach, parser-injected garbage tripping a limit, or an exception escaping
// the network — is *quarantined*: finalized immediately on its worker with
// FinalizeTruncated(), its status captured, later batches dropped, and every
// other session keeps running untouched.  Close() and Wait() stay safe on a
// failed session: Close is idempotent, Wait never hangs (the quarantine
// already released it) and returns the structured partial result —
// status(), certain_result_count() results that are exact, the rest sealed
// speculatively.
class StreamSession : public std::enable_shared_from_this<StreamSession> {
 public:
  using EventBatch = std::shared_ptr<const std::vector<StreamEvent>>;

  // Enqueues a batch on the pinned worker; blocks while its queue is full
  // (backpressure).  An incomplete stream (no kEndDocument by Close time) is
  // sealed closed-world via SpexEngine::FinalizeTruncated.  No-op on a
  // closed session; batches for a quarantined session are dropped.
  void Feed(EventBatch batch);
  // Convenience: wraps a by-value event vector into a shared batch.
  void Feed(std::vector<StreamEvent> events);

  // Per-session limit override, replacing PoolOptions::engine.limits for
  // this session only (per-request deadlines, chaos injection).  Must be
  // called before the first Feed(): the worker reads it when it builds the
  // engine, and the queue mutex is what publishes the write.
  void OverrideLimits(const EngineLimits& limits);

  // Marks the end of input.  Idempotent; Feed afterwards is ignored.  Safe
  // (and a cheap no-op beyond the close task) on an already-failed session.
  void Close();

  // Producer-side failure: poisons the session with `status` (kept only if
  // the worker has not already failed it) and closes it.  The worker seals
  // the partial run; Wait() then reports `status`.  Used by servers whose
  // *input* fails mid-stream (parse error, client disconnect).
  void Abort(Status status);
  // Abort with kCancelled.
  void Cancel();

  // Blocks until the worker has processed every batch of this session
  // (requires Close() first — Wait on an open session waits for it; a
  // quarantined session releases waiters at quarantine time), then returns
  // slot 0's serialized result fragments in document order (all of them for
  // a one-query session; subscription_results has every slot).  On a failed
  // or truncated session these are the structured partials: the first
  // subscription_certain_count(0) fragments are exact, the rest speculative.
  const std::vector<std::string>& Wait();

  // True once the worker has sealed and published the run — Wait() is then
  // guaranteed not to block.  Lets an event-loop server (src/net) poll for
  // completion instead of parking a thread per session.
  bool done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_;
  }

  // Valid after Wait() returned: kOk, or the first failure that poisoned
  // the session (engine breach, Abort status, pool shutdown kCancelled).
  const Status& status() const { return status_; }
  // Valid after Wait(): results known exact, summed over the slots (for one
  // query, the exact prefix of Wait()'s vector).
  int64_t certain_result_count() const { return certain_results_; }
  // Valid after Wait(): true when the run was sealed before end-of-stream.
  bool truncated() const { return truncated_; }

  // Valid after Wait() returned; summed over the slots.
  int64_t result_count() const { return result_count_; }
  const RunStats& stats() const { return stats_; }

  // The session's template; slot indices below are its sorted-canonical
  // slots.
  const QueryTemplate& query_template() const { return *template_; }
  // Valid after Wait(): serialized fragments of slot `slot`, document order.
  const std::vector<std::string>& subscription_results(int slot) const;
  // Valid after Wait(): the certain prefix length of slot `slot`'s results.
  int64_t subscription_certain_count(int slot) const;
  // Kept only for the wire benchmark (wirebench/): true for a population of
  // more than one slot.
  bool subscription() const { return template_->slot_count() > 1; }

  // Canonical query text of a one-slot session; a synthesized
  // "multi:<digest>[<slots>]" label for a population.
  const std::string& query() const {
    return template_->slot_count() == 1 ? template_->slot_text(0)
                                        : multi_label_;
  }
  int worker() const { return worker_; }
  // Pool-unique session id (assigned at open, stable for the session's
  // lifetime); the id /sessions, /flight and the slow-query log all key on.
  int64_t id() const { return session_id_; }

  // Live state for the admin plane; callable from any thread at any time
  // (before the first batch it reports zeros / kStreaming).
  LiveSessionInfo Live() const;

 private:
  friend class EnginePool;

  // Defined in engine_pool.cc (needs the complete EnginePool for the
  // flight-ring capacity).
  StreamSession(EnginePool* pool, int worker,
                std::shared_ptr<const QueryTemplate> query_template);

  // Worker-side: lazily builds the engine (first batch), feeds events,
  // captures results + stats and destroys the engine (close task).  Only
  // the pinned worker thread touches engine_/slot_sinks_.  Detects engine
  // failure after the batch and quarantines (finalizes early); exceptions
  // escaping the network are caught and become kInternal.
  void ProcessBatch(const EventBatch& batch, const EngineOptions& base);
  // Seals + publishes the run; idempotent.  `shutdown_fallback` is applied
  // only when the stream is incomplete and nothing else failed (the pool
  // destructor's drain passes kCancelled; everything else passes kOk).
  void Finalize(const Status& shutdown_fallback = Status::Ok());

  EnginePool* pool_;
  const int worker_;
  // The shared template is immutable — a quarantined session tears down
  // only its own engine instance; other sessions keep instantiating the
  // same template untouched.
  std::shared_ptr<const QueryTemplate> template_;
  std::string multi_label_;  // "multi:<digest>[<slots>]" for query(), K > 1
  // Assigned by OpenSession before the session is visible to anyone.
  int64_t session_id_ = 0;
  // Post-mortem ring of batch-boundary snapshots; worker-thread-only (same
  // thread that publishes the live_* atomics below).
  obs::FlightRecorder flight_;

  // Written producer-side before the first Feed, read by the worker at
  // engine construction (ordered by the task queue's mutex).
  EngineLimits limits_override_;
  bool has_limits_override_ = false;

  // Worker-thread-only run state (until Finalize publishes the harvested
  // slot results under mu_).
  std::unique_ptr<SpexEngine> engine_;
  std::vector<std::unique_ptr<SerializingResultSink>> slot_sinks_;
  // True when the capture sink upgraded this session's engine options
  // (worker-thread-only); Finalize then offers the engine back to the sink
  // before teardown.
  bool captured_ = false;
  // Worker-side failure that quarantined the session (engine breach or
  // exception barrier); worker-thread-only until published by Finalize.
  Status run_status_;
  // False after the exception barrier fired: the network's state is suspect,
  // so Finalize must not drive more events through it.
  bool seal_allowed_ = true;
  // Set by Finalize (worker-thread-only): later batches are dropped.
  bool finished_ = false;

  // Producer-side guard (Feed/Close) — not contended with the worker.
  std::atomic<bool> closed_{false};

  // Steady-clock stamp of the first Feed (0 = not yet fed); written by the
  // producer, read by the worker at Finalize for the feed-to-result
  // histogram.
  std::atomic<int64_t> first_feed_ns_{0};

  // Live telemetry for the admin plane: worker-written at batch boundaries,
  // read by Live() from any thread.  Relaxed is enough — each field is an
  // independent recent-value read, not a consistent tuple.
  std::atomic<int64_t> live_events_{0};
  std::atomic<int64_t> live_results_{0};
  std::atomic<int64_t> live_buffered_events_{0};
  std::atomic<int64_t> live_buffered_bytes_{0};
  std::atomic<int> live_state_{LiveSessionInfo::kStreaming};
  std::atomic<int> live_status_code_{static_cast<int>(StatusCode::kOk)};

  // Completion handshake and captured outputs.
  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  bool done_ = false;
  Status abort_status_;  // producer-requested failure (Abort/Cancel)
  Status status_;
  int64_t result_count_ = 0;
  int64_t certain_results_ = 0;
  bool truncated_ = false;
  RunStats stats_;
  // Per-slot serialized results + certain prefix lengths, harvested at
  // Finalize (sized slot_count at construction, so the accessors are safe
  // even for sessions that were never fed).
  std::vector<std::vector<std::string>> slot_results_;
  std::vector<int64_t> slot_certain_;
};

class EnginePool {
 public:
  explicit EnginePool(PoolOptions options = {});
  // Drains every queued task, finalizes sessions that were never closed
  // (their engines are destroyed on their worker, as required), and joins
  // the workers.
  ~EnginePool();

  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  // Pins a new session for `query_template` to a worker (round-robin).  A
  // population template (subscription mode, DESIGN.md §14) evaluates one
  // document stream against the whole standing population on its merged
  // shared DAG — one delivery sweep per event batch, per-slot result
  // collectors.  Every slot's canonical text is interned with the query
  // registry, and Finalize reports one QueryRunRecord per slot, so
  // per-query RED metrics flow exactly as for one-query sessions.
  std::shared_ptr<StreamSession> OpenSession(
      std::shared_ptr<const QueryTemplate> query_template);
  // Convenience: resolves the query text through `cache` first.  Null (and
  // *error filled) when the text does not parse/validate.
  std::shared_ptr<StreamSession> OpenSession(const std::string& query_text,
                                             CompiledQueryCache* cache,
                                             std::string* error);
  // Structured-error variant: kMalformedInput instead of a bare string.
  StatusOr<std::shared_ptr<StreamSession>> OpenSession(
      const std::string& query_text, CompiledQueryCache* cache);

  // Kept only for the wire benchmark (wirebench/): OpenSession.
  std::shared_ptr<StreamSession> OpenSubscriptions(
      std::shared_ptr<const QueryTemplate> query_template) {
    return OpenSession(std::move(query_template));
  }

  int threads() const { return static_cast<int>(workers_.size()); }

  // Pool-wide meters (thread-safe to Collect at any time):
  //   spex_pool_workers, spex_pool_sessions_opened/_finished,
  //   spex_pool_sessions_failed{reason=<status code>},
  //   spex_pool_batches_submitted/_completed, spex_pool_events_processed,
  //   spex_pool_results_total, spex_pool_backpressure_waits,
  //   spex_pool_queue_depth{worker=i} (with high-water max),
  //   spex_pool_worker_events{worker=i}, and the per-worker latency
  //   histograms spex_pool_queue_wait_us{worker=i} (submit-to-dequeue) and
  //   spex_pool_feed_to_result_us{worker=i} (first Feed to sealed result).
  // spex_pool_events_processed is a pull-style sum of the per-worker event
  // counters, registered before them, so sum-of-workers >= total holds
  // within any one Collect pass (no torn totals under concurrent scraping).
  obs::MetricRegistry& metrics() { return metrics_; }
  const obs::MetricRegistry& metrics() const { return metrics_; }

  // Installs (or, with nullptr, removes) the admin plane's capture hook.
  // The sink must outlive every session that starts while it is installed.
  void SetCaptureSink(SessionCaptureSink* sink) {
    capture_sink_.store(sink, std::memory_order_release);
  }

  // Installs (or removes) the per-query observability registry: sessions
  // are interned at open and report a QueryRunRecord at finalize.  The
  // registry must outlive every session finalized while installed.
  void SetQueryRegistry(QueryRegistry* registry) {
    query_registry_.store(registry, std::memory_order_release);
  }
  QueryRegistry* query_registry() const {
    return query_registry_.load(std::memory_order_acquire);
  }

  // The pool-wide batch sampling controller every session's engine draws
  // from (period = PoolOptions::sampling_period; runtime-mutable).
  obs::SamplingProfiler& sampler() { return sampler_; }

 private:
  friend class StreamSession;

  struct Task {
    std::shared_ptr<StreamSession> session;
    StreamSession::EventBatch batch;  // null for a close task
    bool close = false;
    int64_t enqueue_ns = 0;  // steady-clock stamp at Submit
  };

  struct Worker {
    std::thread thread;
    std::mutex mu;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::deque<Task> queue;
    bool stop = false;
    obs::AtomicGauge* queue_depth = nullptr;        // owned by metrics_
    obs::AtomicCounter* events = nullptr;           // owned by metrics_
    obs::AtomicHistogram* queue_wait_us = nullptr;  // owned by metrics_
    obs::AtomicHistogram* feed_to_result_us = nullptr;
    // Sessions whose engine is live on this worker; worker-thread-only.
    std::vector<std::shared_ptr<StreamSession>> active;
  };

  // Blocks while the worker's queue is full (backpressure).
  void Submit(int worker, Task task);
  void WorkerLoop(int index);

  PoolOptions options_;
  obs::MetricRegistry metrics_;
  obs::AtomicCounter* sessions_opened_ = nullptr;
  obs::AtomicCounter* sessions_finished_ = nullptr;
  // Indexed by StatusCode; kOk's slot stays null (success is not a failure).
  obs::AtomicCounter* sessions_failed_[kStatusCodeCount] = {};
  obs::AtomicCounter* batches_submitted_ = nullptr;
  obs::AtomicCounter* batches_completed_ = nullptr;
  obs::AtomicCounter* results_total_ = nullptr;
  obs::AtomicCounter* backpressure_waits_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> next_worker_{0};
  std::atomic<SessionCaptureSink*> capture_sink_{nullptr};
  std::atomic<QueryRegistry*> query_registry_{nullptr};
  std::atomic<int64_t> next_session_id_{1};
  obs::SamplingProfiler sampler_;
};

}  // namespace spex

#endif  // SPEX_RUNTIME_ENGINE_POOL_H_
