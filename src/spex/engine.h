// SPEX evaluation engine: the public entry point of the library.
//
// Usage, one query:
//   spex::ExprPtr query = spex::MustParseRpeq("_*.a[b].c");
//   spex::CollectingResultSink results;
//   spex::SpexEngine engine(*query, &results);
//   ... feed document messages (e.g. from spex::XmlParser) ...
//   engine is an EventSink, so:  XmlParser parser(&engine); parser.Parse(xml);
//
// Usage, a population (the paper's §IX outlook: "A single transducer
// network can be used for processing several queries having common
// subparts"):
//   spex::SpexEngine engine;
//   int a = engine.AddQuery("_*.item[urgent].headline", &sink_a).value();
//   int b = engine.AddQuery("_*.item[urgent].body", &sink_b).value();
//   // a and b share the `_*` spine AND the `[urgent]` sandwich.
//   engine.Finalize();
//   ... feed StreamEvents ...
//
// The engine compiles its queries once (linear time, Lemma V.1) into one
// network and then processes each document message in a single pass
// through it, emitting result fragments progressively.

#ifndef SPEX_SPEX_ENGINE_H_
#define SPEX_SPEX_ENGINE_H_

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "rpeq/ast.h"
#include "spex/compiler.h"
#include "spex/network.h"
#include "spex/observe.h"
#include "spex/output_transducer.h"
#include "xml/stream_event.h"

namespace spex {

namespace obs {
class SamplingProfiler;
}  // namespace obs

// Aggregate resource accounting over a run (validates the §V bounds).
struct RunStats {
  // Number of transducers in the compiled network (Def. 3 degree + IN + OU).
  int network_degree = 0;
  // Document messages fed through OnEvent so far.
  int64_t events_processed = 0;
  // Peak depth-stack entries over all transducers; bounded by the document
  // depth d (§V: space O(d) per transducer).
  int64_t max_depth_stack = 0;
  // Peak condition-stack entries over all transducers; also O(d).
  int64_t max_condition_stack = 0;
  // Largest formula (distinct DAG nodes, the factored size of Remark V.1)
  // handled by any transducer.  Because formula nodes come from a pooled
  // arena bounded by the count of live nodes (see formula.h), this is also
  // the engine's formula-memory high-water mark per message; on streams
  // with bounded depth and qualifier nesting it stays bounded no matter how
  // long the stream runs (the end-of-round variable GC retires bindings, and
  // eager PruneFalse keeps the stacks' formulas trimmed).
  int64_t max_formula_nodes = 0;
  // Sum of per-transducer messages_in: total message deliveries, the
  // paper's O(degree * stream) message bound.
  int64_t total_messages = 0;
  OutputStats output;

  std::string ToString() const;
};

// One engine for one query or a population of K queries (DESIGN.md §14):
// the hash-consed step DAG of StepGraph with one output collector per
// query.  A single query is the population of one.
class SpexEngine : public EventSink {
 public:
  // An empty population: AddQuery each member, then Finalize().
  explicit SpexEngine(EngineOptions options = {});
  // Compiles `query` into a network delivering results to `sink`.  Both the
  // query and the sink must outlive the engine.
  SpexEngine(const Expr& query, ResultSink* sink, EngineOptions options = {});
  // Instantiates a pre-built immutable QueryTemplate (shared with other
  // sessions through runtime/query_cache.h) with one sink per template slot
  // (sorted-canonical order; query id i == slot i).  The engine keeps the
  // template alive, so only the sinks' lifetime is the caller's problem.
  // The network itself is instantiated fresh for this run — templates carry
  // no run state and may be shared across threads.  The engine arrives
  // finalized: feed events immediately.
  SpexEngine(std::shared_ptr<const QueryTemplate> query_template,
             const std::vector<ResultSink*>& slot_sinks,
             EngineOptions options = {});
  // As above for a one-slot template.
  SpexEngine(std::shared_ptr<const QueryTemplate> query_template,
             ResultSink* sink, EngineOptions options = {})
      : SpexEngine(std::move(query_template), std::vector<ResultSink*>{sink},
                   std::move(options)) {}
  ~SpexEngine() override;

  SpexEngine(const SpexEngine&) = delete;
  SpexEngine& operator=(const SpexEngine&) = delete;

  // Registers a query (cloned); returns its id.  kMalformedInput when the
  // query fails ValidateQuery; kFailedPrecondition after Finalize().
  StatusOr<int> AddQuery(const Expr& query, ResultSink* sink);
  // As above from rpeq text; parse errors are kMalformedInput, never abort.
  StatusOr<int> AddQuery(const std::string& query_text, ResultSink* sink);

  // Compiles the network.  No more queries can be added afterwards.
  void Finalize();
  bool finalized() const { return finalized_; }

  // Feeds one document message through the network.  On kEndDocument the
  // output transducers are flushed and all remaining candidates decided.
  //
  // Resource governance (DESIGN.md §10): when EngineOptions::limits is set,
  // every event passes the governor first; a breached limit poisons the run
  // (status() becomes kResourceExhausted / kDeadlineExceeded) and every
  // further event is dropped.  Call FinalizeTruncated() to seal the stream
  // and harvest the partial result.  With limits unset and
  // track_open_elements off this costs exactly one predictable branch.
  void OnEvent(const StreamEvent& event) override;

  // Batched feeding (DESIGN.md §11): processes `count` consecutive document
  // messages.  Results, statuses and counters are identical to `count`
  // OnEvent calls at any batch size; the difference is cost.  For networks
  // without condition variables (CompiledNetwork::batchable) the whole
  // batch sweeps the network with one virtual dispatch and one stats flush
  // per transducer (Network::DeliverBatch), governed or not; everything
  // else — qualifier / preceding-axis queries, observe=full runs, per-event
  // byte limits — falls back to the exact per-event path internally.  The
  // events must outlive the call (zero-copy borrowing at batch scope).
  void OnEventBatch(const StreamEvent* events, size_t count) override;

  // kOk while the run is healthy; the breach status once the governor
  // tripped.  A poisoned engine ignores further OnEvent calls.
  const Status& status() const { return status_; }

  // Seals an incomplete stream: virtually closes every open element (end
  // tags synthesized from the tracked open path) and delivers a virtual
  // end-document so the output transducers decide every remaining candidate
  // under closed-world semantics.  Fragments fully emitted before the
  // truncation point are *certain* — byte-for-byte what any run over the
  // full stream would have emitted first (monotone formulas, document-order
  // emission); fragments emitted by this call are *speculative* (their
  // content or membership could have changed had the stream continued).
  // Requires limits or EngineOptions::track_open_elements; idempotent, and a
  // no-op after a complete stream.  Returns status() (unchanged: sealing
  // does not clear a breach).
  Status FinalizeTruncated();

  // True once the stream delivered (or FinalizeTruncated synthesized) its
  // end-document message.
  bool stream_complete() const { return document_ended_; }
  // True iff FinalizeTruncated sealed this run.
  bool truncated() const { return truncated_; }

  int query_count() const { return graph_->query_count(); }
  // Number of results query `query_id` emitted so far.
  int64_t result_count(int query_id = 0) const;
  // Results of `query_id` known to be exact: on a healthy run, all of them;
  // after a governor breach or FinalizeTruncated, the fragments fully
  // emitted before the truncation point.  The first certain_result_count()
  // results of a collecting/serializing sink are the certain ones
  // (document-order emission).
  int64_t certain_result_count(int query_id = 0) const;
  // Results emitted across the whole population.
  int64_t total_result_count() const;

  // Output-buffer occupancy right now, summed over every query's collector:
  // events held for undecided candidate fragments and their byte cost (the
  // quantities the §V memory bounds and the governor's max_buffered_bytes
  // limit speak about).
  int64_t buffered_events() const;
  int64_t buffered_bytes() const;

  // Degree of the network vs. the sum of the degrees the queries would have
  // as separate networks — the §IX sharing win.  naive_degree() trial-
  // compiles each query on first call (cached; engines built from a
  // QueryTemplate inherit the template's precomputed value).
  int shared_degree() const { return compiled_.network.node_count(); }
  int naive_degree() const;
  int64_t events_processed() const { return events_processed_; }

  // Resource accounting.  Reads the observability registry (which exposes
  // the per-transducer stats at every observe level) and folds it into the
  // aggregate §V view; callable at any point of the stream.
  RunStats ComputeStats() const;

  // EXPLAIN/PROFILE: per-node cost attribution with query provenance (see
  // obs/profile.h).  Timed (self-time shares, deliveries) when
  // options.profile was set; otherwise a static plan — provenance, predicted
  // cost classes, and whatever message counts have accrued.  Callable at any
  // point of the stream.  report.query defaults to the compiled queries'
  // round-trip syntax ("; "-separated); callers holding the original query
  // text (whose byte offsets the spans index) may overwrite it.
  obs::ProfileReport Profile() const;

  // Always-on statistical sampling (DESIGN.md §13): with a controller
  // attached, each OnEventBatch call draws once and the ~1/period batches
  // that win are delivered through the instrumented per-message path into a
  // private ProfileAccumulator — continuous attribution at a fraction of
  // options.profile's cost.  The controller is shared (typically pool-wide)
  // and must outlive the engine; a full profiler (options.profile) takes
  // precedence, since every batch is already instrumented then.  The
  // per-event OnEvent path never samples: sampling is batch-granular by
  // design (the draw must stay off the per-event hot path).
  void SetBatchSampler(obs::SamplingProfiler* sampler) {
    sampler_ctl_ = sampler;
  }
  // Batches this engine actually sampled.
  int64_t sampled_batches() const { return sampled_batches_; }
  // Attribution report over the sampled batches (timed iff any batch was
  // sampled); same shape as Profile().
  obs::ProfileReport SampledProfile() const;

  // The run's live metrics registry (see obs/metrics.h).  Pull collectors
  // over the network/output/formula-pool state are registered at Finalize
  // at every observe level (a population labels its output collectors
  // query=<id>); push instruments (spex_events_total, histograms) exist
  // only when options.observe != kOff.
  obs::MetricRegistry& metrics() { return context_->metrics; }
  const obs::MetricRegistry& metrics() const { return context_->metrics; }

  // Span recorder of an observe=full run; null otherwise.  Export with
  // trace_recorder()->ToChromeJson() (chrome://tracing / Perfetto).
  const obs::TraceRecorder* trace_recorder() const {
    return obs_ != nullptr ? obs_->trace_recorder() : nullptr;
  }

  // Progress watermarks.  Configured callbacks (EngineOptions::progress)
  // fire from OnEvent every N events / M bytes; CurrentWatermark() computes
  // the same report on demand (examples/stream_monitor polls it).  The
  // reported rate is measured since the previous watermark (from either
  // path).  `bytes` is 0 unless a byte source was attached.
  Watermark CurrentWatermark() const;
  // Attaches the stream-byte source used by Watermark::bytes and the
  // every_bytes trigger — typically [&parser] { return parser.bytes_consumed(); }.
  // The callable must outlive the engine's last OnEvent/CurrentWatermark.
  void set_progress_bytes_source(std::function<int64_t()> source) {
    progress_bytes_source_ = std::move(source);
  }

  Network& network() { return compiled_.network; }
  RunContext& context() { return *context_; }
  // The run's label symbols.  A parser configured with this table stamps
  // events so OnEvent skips interning entirely (see EvaluateXml); events
  // arriving unstamped are interned on entry.
  SymbolTable* symbol_table() { return context_->symbol_table(); }

  // Test hook: the rule trace of node `node_id` (only populated when
  // options.record_traces was set).
  const TransducerTrace* trace(int node_id) const;
  // Trace of the first transducer named `name` (e.g. "CH(a)"), or nullptr.
  const TransducerTrace* trace(const std::string& name) const;

 private:
  // OnEventBatch after the sampling draw.
  void OnEventBatchUnsampled(const StreamEvent* events, size_t count);
  // Sampled batch: instrumented delivery into sample_profiler_.
  void SampleBatch(const StreamEvent* events, size_t count);
  // The ungoverned per-event path.
  void ProcessEvent(const StreamEvent& event);
  // Governed per-event path: limit checks + open-path tracking around
  // ProcessEvent.  Entered only when guarded_ (limits or tracking on).
  void GuardedOnEvent(const StreamEvent& event);
  // Batch-sweep delivery of a batchable network (no condition variables).
  void DeliverEventBatch(const StreamEvent* events, size_t count);
  // Governed batch path: per-event pre-checks (max_events / max_depth /
  // open-path tracking) build an admissible prefix, which is delivered as
  // one batch before any breach poisons the run — so exactly the events a
  // per-event run would have processed are processed.
  void GuardedBatch(const StreamEvent* events, size_t count);
  // Poisons the run and freezes the certain-result boundaries.
  void FailRun(Status status);
  void FreezeCertainResults();
  void FlushOutputs();
  // Cold path of OnEvent: delivery wrapped in metric/trace publication plus
  // watermark triggering.  Entered only when observation or progress is on.
  void OnEventObserved(const StreamEvent& event, Message message);
  void MaybeEmitProgress();
  obs::ProfileReport BuildReport(const obs::ProfileAccumulator* profiler) const;

  std::unique_ptr<RunContext> context_;
  // Non-null only for template-instantiated engines: keeps the shared
  // template (and the Exprs the network's provenance points into) alive.
  std::shared_ptr<const QueryTemplate> template_;
  // The registered queries: own_graph_ (over own_queries_ clones) for an
  // engine built query by query, the template's graph otherwise.
  std::vector<ExprPtr> own_queries_;
  StepGraph own_graph_;
  const StepGraph* graph_ = &own_graph_;
  std::vector<ResultSink*> sinks_;  // per query id
  mutable int naive_degree_ = -1;   // lazily computed (see naive_degree())
  bool finalized_ = false;
  CompiledNetwork compiled_;
  std::vector<std::unique_ptr<TransducerTrace>> traces_;
  std::unique_ptr<EngineObservability> obs_;  // non-null iff observe != kOff
  std::unique_ptr<obs::ProfileAccumulator> profiler_;  // iff options.profile
  // Batch sampling (SetBatchSampler): shared controller, lazily-built
  // private accumulator for the sampled batches.
  obs::SamplingProfiler* sampler_ctl_ = nullptr;
  std::unique_ptr<obs::ProfileAccumulator> sample_profiler_;
  int64_t sampled_batches_ = 0;
  int64_t events_processed_ = 0;
  // True when OnEvent must take the governed path (limits configured or
  // track_open_elements): the unguarded hot path tests exactly this flag.
  bool guarded_ = false;
  // True when OnEventBatch may use Network::DeliverBatch: batchable network
  // and no per-delivery event spans (observe != kFull).  Computed once in
  // Finalize; false sends batches through the per-event loop.
  bool batch_path_ = false;
  // Reusable message buffer of the batch path; capacity circulates with the
  // network's pending buffers, so steady state allocates nothing.
  std::vector<Message> message_batch_;
  bool document_ended_ = false;
  bool truncated_ = false;
  Status status_;
  // Interned labels of the currently open elements (governed runs only);
  // FinalizeTruncated synthesizes the virtual close tags from it.
  std::vector<Symbol> open_path_;
  // Per-query certain-result boundary; empty = not truncated (everything
  // certain).
  std::vector<int64_t> certain_results_;
  // Wall-clock breach point when limits.deadline_ms is set.
  std::chrono::steady_clock::time_point deadline_{};
  // True when OnEvent must take the observed path (observe != kOff or
  // progress enabled): the disabled hot path tests exactly this one flag.
  bool observed_path_ = false;
  bool progress_enabled_ = false;
  std::function<int64_t()> progress_bytes_source_;
  int64_t next_progress_events_ = 0;
  int64_t next_progress_bytes_ = 0;
  std::chrono::steady_clock::time_point run_start_{};
  // Rate baseline of the previous watermark (mutable: CurrentWatermark is
  // logically const but advances the rate window).
  mutable std::chrono::steady_clock::time_point last_watermark_time_{};
  mutable int64_t last_watermark_events_ = 0;
};

// ---------------------------------------------------------------------------
// One-shot conveniences.

// Evaluates `query` against a complete event stream; returns the serialized
// XML of every result fragment, in document order.
std::vector<std::string> EvaluateToStrings(const Expr& query,
                                           const std::vector<StreamEvent>& events,
                                           EngineOptions options = {});

// As above but returns raw event fragments.
std::vector<std::vector<StreamEvent>> EvaluateToFragments(
    const Expr& query, const std::vector<StreamEvent>& events,
    EngineOptions options = {});

// Evaluates and returns only the number of results (constant memory).
int64_t CountMatches(const Expr& query, const std::vector<StreamEvent>& events,
                     EngineOptions options = {});

// Parses `xml`, evaluates `query_text` (rpeq syntax) and returns serialized
// result fragments.  Aborts on parse errors — for examples and tests where
// inputs are known-good literals.
std::vector<std::string> EvaluateXml(const std::string& query_text,
                                     const std::string& xml);

}  // namespace spex

#endif  // SPEX_SPEX_ENGINE_H_
