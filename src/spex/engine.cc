#include "spex/engine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "obs/sampling_profiler.h"
#include "rpeq/parser.h"
#include "xml/xml_parser.h"

namespace spex {

std::string RunStats::ToString() const {
  std::string out;
  out += "network_degree=" + std::to_string(network_degree);
  out += " events=" + std::to_string(events_processed);
  out += " max_depth_stack=" + std::to_string(max_depth_stack);
  out += " max_cond_stack=" + std::to_string(max_condition_stack);
  out += " max_formula_nodes=" + std::to_string(max_formula_nodes);
  out += " messages=" + std::to_string(total_messages);
  out += " candidates=" + std::to_string(output.candidates_created);
  out += " emitted=" + std::to_string(output.candidates_emitted);
  out += " dropped=" + std::to_string(output.candidates_dropped);
  out += " buffered_peak=" + std::to_string(output.buffered_events_peak);
  return out;
}

SpexEngine::SpexEngine(EngineOptions options)
    : context_(std::make_unique<RunContext>()) {
  context_->options = std::move(options);
}

SpexEngine::SpexEngine(const Expr& query, ResultSink* sink,
                       EngineOptions options)
    : SpexEngine(std::move(options)) {
  own_graph_.Add(query);
  sinks_.push_back(sink);
  Finalize();
}

SpexEngine::SpexEngine(std::shared_ptr<const QueryTemplate> query_template,
                       const std::vector<ResultSink*>& slot_sinks,
                       EngineOptions options)
    : SpexEngine(std::move(options)) {
  template_ = std::move(query_template);
  assert(slot_sinks.size() == static_cast<size_t>(template_->slot_count()) &&
         "one sink per template slot");
  graph_ = &template_->graph();
  sinks_ = slot_sinks;
  // The template trial-compiled the population once; inherit the degree so
  // per-session instantiation never re-runs N scratch compiles.
  naive_degree_ = template_->naive_degree();
  Finalize();
}

SpexEngine::~SpexEngine() = default;

StatusOr<int> SpexEngine::AddQuery(const Expr& query, ResultSink* sink) {
  if (finalized_) {
    return Status::FailedPrecondition(
        "AddQuery after Finalize(): the network is already compiled");
  }
  std::string error;
  if (!ValidateQuery(query, &error)) {
    return Status::MalformedInput("invalid query: " + error);
  }
  own_queries_.push_back(query.Clone());
  sinks_.push_back(sink);
  naive_degree_ = -1;  // population changed; recompute on demand
  return own_graph_.Add(*own_queries_.back());
}

StatusOr<int> SpexEngine::AddQuery(const std::string& query_text,
                                   ResultSink* sink) {
  ParseResult parsed = ParseRpeq(query_text);
  if (!parsed.ok()) {
    return Status::MalformedInput("query '" + query_text +
                                  "': " + parsed.error);
  }
  return AddQuery(*parsed.expr, sink);
}

int SpexEngine::naive_degree() const {
  if (naive_degree_ < 0) naive_degree_ = graph_->NaiveDegree();
  return naive_degree_;
}

void SpexEngine::Finalize() {
  assert(!finalized_);
  finalized_ = true;
  compiled_ = graph_->Compile(sinks_, context_.get());
  const EngineOptions& options = context_->options;
  if (options.profile) {
    profiler_ = std::make_unique<obs::ProfileAccumulator>(
        compiled_.network.node_count());
    compiled_.network.SetProfiler(profiler_.get());
  }
  if (options.record_traces) {
    traces_.reserve(compiled_.network.node_count());
    for (int i = 0; i < compiled_.network.node_count(); ++i) {
      traces_.push_back(std::make_unique<TransducerTrace>());
      compiled_.network.node(i)->set_trace(traces_.back().get());
    }
  }
  if (options.observe != ObserveLevel::kOff) {
    obs_ = std::make_unique<EngineObservability>(
        context_.get(), &compiled_.network, options.trace_capacity);
  }
  // Pull collectors over state the components maintain unconditionally —
  // registered at every observe level so the registry (and ComputeStats,
  // which reads it) always reflects the §V bounds.  A population labels
  // each collector with its query id.
  RegisterNetworkCollectors(&context_->metrics, &compiled_.network);
  const size_t outputs = compiled_.outputs.size();
  for (size_t i = 0; i < outputs; ++i) {
    RegisterOutputCollectors(
        &context_->metrics, compiled_.outputs[i],
        outputs == 1 ? obs::Labels{}
                     : obs::Labels{{"query", std::to_string(i)}});
  }
  RegisterContextCollectors(&context_->metrics, context_.get());
  context_->metrics.AddCallbackGauge(
      "spex_engine_events", {},
      [counter = &events_processed_] { return *counter; });
  progress_enabled_ = options.progress.enabled();
  if (progress_enabled_) {
    next_progress_events_ = options.progress.every_events;
    next_progress_bytes_ = options.progress.every_bytes;
  }
  observed_path_ = obs_ != nullptr || progress_enabled_;
  guarded_ = options.limits.enabled() || options.track_open_elements;
  // observe=full records a span per event delivery; batching would collapse
  // those into one span per batch, so full observation keeps per-event
  // feeding (the profiler needs no such carve-out: Network::DeliverBatch
  // itself falls back to per-message delivery when instrumented).
  batch_path_ =
      compiled_.batchable && (obs_ == nullptr || trace_recorder() == nullptr);
  if (guarded_) open_path_.reserve(64);
  run_start_ = std::chrono::steady_clock::now();
  if (options.limits.deadline_ms > 0) {
    deadline_ =
        run_start_ + std::chrono::milliseconds(options.limits.deadline_ms);
  }
  last_watermark_time_ = run_start_;
}

void SpexEngine::OnEvent(const StreamEvent& event) {
  assert(finalized_ && "Finalize() before feeding events");
  // The resource governor costs this one branch when disabled (DESIGN.md
  // §10), mirroring the observability contract below.
  if (!guarded_) [[likely]] {
    ProcessEvent(event);
    return;
  }
  GuardedOnEvent(event);
}

void SpexEngine::OnEventBatch(const StreamEvent* events, size_t count) {
  assert(finalized_ && "Finalize() before feeding events");
  if (count == 0) return;
  // One null-check per *batch* when no controller is attached; with one, a
  // thread-local increment and a relaxed load (see obs/sampling_profiler.h).
  // Never on the per-event OnEvent path.
  if (sampler_ctl_ != nullptr && sampler_ctl_->ShouldSample()) [[unlikely]] {
    SampleBatch(events, count);
    return;
  }
  OnEventBatchUnsampled(events, count);
}

void SpexEngine::SampleBatch(const StreamEvent* events, size_t count) {
  if (profiler_ != nullptr) {
    // options.profile already instruments every delivery; sampling on top
    // would only steal its attributions.
    OnEventBatchUnsampled(events, count);
    return;
  }
  if (sample_profiler_ == nullptr) {
    sample_profiler_ = std::make_unique<obs::ProfileAccumulator>(
        compiled_.network.node_count());
  }
  // With a profiler attached the network flags itself instrumented and
  // DeliverBatch falls back to per-message delivery — exactly the
  // instrumented path a full profile takes, for this one batch.
  compiled_.network.SetProfiler(sample_profiler_.get());
  OnEventBatchUnsampled(events, count);
  compiled_.network.SetProfiler(nullptr);
  ++sampled_batches_;
}

void SpexEngine::OnEventBatchUnsampled(const StreamEvent* events,
                                       size_t count) {
  if (!batch_path_) {
    // Non-batchable network (condition variables) or observe=full: the
    // per-event path is the semantics, batching is only a feeding shape.
    for (size_t i = 0; i < count; ++i) OnEvent(events[i]);
    return;
  }
  if (!guarded_) [[likely]] {
    DeliverEventBatch(events, count);
    return;
  }
  GuardedBatch(events, count);
}

void SpexEngine::FlushOutputs() {
  for (OutputTransducer* output : compiled_.outputs) output->Flush();
}

void SpexEngine::DeliverEventBatch(const StreamEvent* events, size_t count) {
  message_batch_.clear();
  message_batch_.reserve(count);
  SymbolTable* symbols = context_->symbol_table();
  bool saw_end = false;
  for (size_t i = 0; i < count; ++i) {
    const StreamEvent& e = events[i];
    Message m = Message::DocumentRef(e);
    if (m.symbol == kNoSymbol && e.kind == EventKind::kStartElement) {
      m.symbol = symbols->Intern(e.name);
    }
    saw_end |= (e.kind == EventKind::kEndDocument);
    message_batch_.push_back(std::move(m));
  }
  if (saw_end && events[count - 1].kind != EventKind::kEndDocument) {
    // </$> mid-batch: the per-event path flushes the output transducers at
    // the end-document message, before anything that (bogusly) follows it.
    // Keep that exact on this cold path.
    message_batch_.clear();
    for (size_t i = 0; i < count; ++i) ProcessEvent(events[i]);
    return;
  }
  events_processed_ += static_cast<int64_t>(count);
  if (!observed_path_) [[likely]] {
    compiled_.network.DeliverBatch(compiled_.input_node, 0, &message_batch_);
  } else {
    if (obs_ != nullptr) {
      obs_->ObserveDeliveryBatch(events_processed_,
                                 static_cast<int64_t>(count), [&] {
                                   compiled_.network.DeliverBatch(
                                       compiled_.input_node, 0,
                                       &message_batch_);
                                 });
    } else {
      compiled_.network.DeliverBatch(compiled_.input_node, 0, &message_batch_);
    }
    if (progress_enabled_) MaybeEmitProgress();
  }
  if (saw_end) {
    document_ended_ = true;
    FlushOutputs();
  }
  // No end-of-round variable GC here: a batchable network creates no
  // condition variables, so retired_variables stays empty by construction.
}

void SpexEngine::GuardedBatch(const StreamEvent* events, size_t count) {
  if (!status_.ok()) return;  // poisoned: the rest of the stream is dropped
  const EngineLimits& limits = context_->options.limits;
  // The byte post-limits sample occupancy after every event; batching would
  // coarsen the breach point, so those runs keep exact per-event checks.
  if (limits.max_buffered_bytes > 0 || limits.max_formula_bytes > 0) {
    for (size_t i = 0; i < count; ++i) GuardedOnEvent(events[i]);
    return;
  }
  if (limits.deadline_ms > 0 && std::chrono::steady_clock::now() > deadline_) {
    FailRun(Status::DeadlineExceeded(
        "deadline_ms exceeded (" + std::to_string(limits.deadline_ms) + ")"));
    return;
  }
  // Per-event pre-checks build the admissible prefix, exactly the events a
  // per-event run would have delivered before the breach.
  Status breach;
  size_t admitted = 0;
  for (; admitted < count; ++admitted) {
    const StreamEvent& e = events[admitted];
    if (limits.max_events > 0 &&
        events_processed_ + static_cast<int64_t>(admitted) >=
            limits.max_events) {
      breach = Status::ResourceExhausted(
          "max_events exceeded (" + std::to_string(limits.max_events) + ")");
      break;
    }
    if (e.kind == EventKind::kStartElement) {
      if (limits.max_depth > 0 &&
          static_cast<int>(open_path_.size()) >= limits.max_depth) {
        breach = Status::ResourceExhausted(
            "max_depth exceeded (" + std::to_string(limits.max_depth) + ")");
        break;
      }
      open_path_.push_back(e.label != kNoSymbol
                               ? e.label
                               : context_->symbol_table()->Intern(e.name));
    } else if (e.kind == EventKind::kEndElement && !open_path_.empty()) {
      open_path_.pop_back();
    }
  }
  if (admitted > 0) DeliverEventBatch(events, admitted);
  if (admitted < count) FailRun(std::move(breach));
}

void SpexEngine::ProcessEvent(const StreamEvent& event) {
  ++events_processed_;
  // Zero-copy delivery: the message borrows `event`, which outlives the
  // synchronous delivery round (no transducer keeps a document message
  // queued across rounds — see DESIGN.md "Hot path & memory discipline").
  // Events not stamped by a parser are interned here so the label
  // transducers always take the integer fast path.
  Message m = Message::DocumentRef(event);
  if (m.symbol == kNoSymbol && event.kind == EventKind::kStartElement) {
    m.symbol = context_->symbol_table()->Intern(event.name);
  }
  // Observability costs this one branch when disabled (DESIGN.md §7).
  if (!observed_path_) [[likely]] {
    compiled_.network.Deliver(compiled_.input_node, 0, std::move(m));
  } else {
    OnEventObserved(event, std::move(m));
  }
  if (event.kind == EventKind::kEndDocument) {
    document_ended_ = true;
    FlushOutputs();
  }
  // End-of-round garbage collection: with eager updates, formulas referring
  // to a retired variable were rewritten while its determination propagated
  // this round, so the binding can go.  (Lazy mode keeps every binding.)
  if (context_->options.eager_formula_update && context_->allow_variable_gc &&
      !context_->retired_variables.empty()) {
    for (VarId v : context_->retired_variables) {
      context_->assignment.Erase(v);
    }
    context_->retired_variables.clear();
  }
}

void SpexEngine::GuardedOnEvent(const StreamEvent& event) {
  if (!status_.ok()) return;  // poisoned: the rest of the stream is dropped
  const EngineLimits& limits = context_->options.limits;
  // Pre-checks reject the event *before* tracking it, so open_path_ always
  // matches what the network actually saw.
  if (limits.max_events > 0 && events_processed_ >= limits.max_events) {
    FailRun(Status::ResourceExhausted(
        "max_events exceeded (" + std::to_string(limits.max_events) + ")"));
    return;
  }
  if (limits.deadline_ms > 0 && (events_processed_ & 255) == 0 &&
      std::chrono::steady_clock::now() > deadline_) {
    FailRun(Status::DeadlineExceeded(
        "deadline_ms exceeded (" + std::to_string(limits.deadline_ms) + ")"));
    return;
  }
  if (event.kind == EventKind::kStartElement) {
    if (limits.max_depth > 0 &&
        static_cast<int>(open_path_.size()) >= limits.max_depth) {
      FailRun(Status::ResourceExhausted(
          "max_depth exceeded (" + std::to_string(limits.max_depth) + ")"));
      return;
    }
    open_path_.push_back(event.label != kNoSymbol
                             ? event.label
                             : context_->symbol_table()->Intern(event.name));
  } else if (event.kind == EventKind::kEndElement && !open_path_.empty()) {
    open_path_.pop_back();
  }
  ProcessEvent(event);
  // Post-checks: memory the event's delivery actually pinned.  Skipped once
  // the stream completed — after end-document the run already flushed and
  // decided everything, and the thread-shared formula arena may still hold
  // *other* sessions' live nodes, which must not fail a finished run.
  if (document_ended_) return;
  if (limits.max_buffered_bytes > 0 &&
      buffered_bytes() > limits.max_buffered_bytes) {
    FailRun(Status::ResourceExhausted(
        "max_buffered_bytes exceeded (" +
        std::to_string(limits.max_buffered_bytes) + ")"));
    return;
  }
  if (limits.max_formula_bytes > 0 &&
      Formula::GetPoolStats().live *
              static_cast<int64_t>(sizeof(internal::FormulaNode)) >
          limits.max_formula_bytes) {
    FailRun(Status::ResourceExhausted(
        "max_formula_bytes exceeded (" +
        std::to_string(limits.max_formula_bytes) + ")"));
  }
}

void SpexEngine::FailRun(Status status) {
  status_ = std::move(status);
  FreezeCertainResults();
}

void SpexEngine::FreezeCertainResults() {
  // Everything fully emitted up to the breach is certain, per query;
  // fragments emitted later (by FinalizeTruncated's virtual closes) are
  // speculative.
  certain_results_.resize(compiled_.outputs.size());
  for (size_t i = 0; i < compiled_.outputs.size(); ++i) {
    certain_results_[i] = compiled_.outputs[i]->result_count();
  }
}

Status SpexEngine::FinalizeTruncated() {
  if (document_ended_) return status_;  // complete (or already sealed): no-op
  if (certain_results_.empty()) FreezeCertainResults();
  truncated_ = true;
  if (events_processed_ == 0) {
    // Nothing was ever delivered; there is no open round to close.
    document_ended_ = true;
    return status_;
  }
  // Seal below the governor: the virtual closes must reach the network even
  // on a poisoned run, and must not re-trip the limit being breached.
  const bool was_guarded = guarded_;
  guarded_ = false;
  SymbolTable* symbols = context_->symbol_table();
  while (!open_path_.empty()) {
    const Symbol label = open_path_.back();
    open_path_.pop_back();
    StreamEvent close = StreamEvent::EndElement(symbols->Name(label));
    close.label = label;
    ProcessEvent(close);
  }
  ProcessEvent(StreamEvent::EndDocument());  // flushes OUs, decides candidates
  guarded_ = was_guarded;
  return status_;
}

void SpexEngine::OnEventObserved(const StreamEvent& event, Message message) {
  if (obs_ != nullptr) {
    obs_->ObserveDelivery(event.kind, events_processed_, [&] {
      compiled_.network.Deliver(compiled_.input_node, 0, std::move(message));
    });
  } else {
    compiled_.network.Deliver(compiled_.input_node, 0, std::move(message));
  }
  if (progress_enabled_) MaybeEmitProgress();
}

void SpexEngine::MaybeEmitProgress() {
  const ProgressOptions& progress = context_->options.progress;
  bool due = false;
  if (progress.every_events > 0 && events_processed_ >= next_progress_events_) {
    due = true;
    // A batch can jump several thresholds at once; one callback fires and
    // the trigger re-arms past the current count (batch granularity).
    do {
      next_progress_events_ += progress.every_events;
    } while (events_processed_ >= next_progress_events_);
  }
  if (!due && progress.every_bytes > 0 && progress_bytes_source_) {
    const int64_t bytes = progress_bytes_source_();
    if (bytes >= next_progress_bytes_) {
      due = true;
      next_progress_bytes_ = bytes + progress.every_bytes;
    }
  }
  if (due && progress.callback) progress.callback(CurrentWatermark());
}

Watermark SpexEngine::CurrentWatermark() const {
  Watermark w;
  w.events = events_processed_;
  w.bytes = progress_bytes_source_ ? progress_bytes_source_() : 0;
  const auto now = std::chrono::steady_clock::now();
  w.elapsed_sec = std::chrono::duration<double>(now - run_start_).count();
  const double window =
      std::chrono::duration<double>(now - last_watermark_time_).count();
  // A zero/near-zero window (first tick polled immediately, back-to-back
  // polls, coarse clocks) would divide into inf or garbage rates.  Report 0
  // and leave the baseline in place so the next poll sees the full window.
  constexpr double kMinRateWindowSec = 1e-6;
  if (window >= kMinRateWindowSec) {
    w.events_per_sec =
        static_cast<double>(events_processed_ - last_watermark_events_) /
        window;
    last_watermark_time_ = now;
    last_watermark_events_ = events_processed_;
  }
  w.results = total_result_count();
  for (const OutputTransducer* output : compiled_.outputs) {
    w.pending_fragments += output->pending_candidates();
    w.buffered_events += output->buffered_events();
    w.buffered_events_peak =
        std::max(w.buffered_events_peak,
                 output->output_stats().buffered_events_peak);
  }
  w.live_formula_nodes = Formula::GetPoolStats().live;
  w.live_condition_vars = static_cast<int64_t>(context_->assignment.size());
  return w;
}

RunStats SpexEngine::ComputeStats() const {
  // Folded from the registry's pull collectors (registered at every observe
  // level), so the §V aggregate view and any metrics export agree by
  // construction: total_messages == sum(spex_transducer_messages_in) etc.
  const obs::MetricsSnapshot snap = context_->metrics.Collect();
  RunStats stats;
  stats.network_degree =
      static_cast<int>(snap.Value("spex_network_transducers"));
  stats.events_processed = snap.Value("spex_engine_events");
  stats.max_depth_stack = snap.MaxAll("spex_transducer_depth_stack_peak");
  stats.max_condition_stack =
      snap.MaxAll("spex_transducer_condition_stack_peak");
  stats.max_formula_nodes = snap.MaxAll("spex_transducer_formula_nodes_peak");
  stats.total_messages = snap.SumAll("spex_transducer_messages_in");
  // Output stats sum (peaks: max) over every query's collector.
  stats.output.candidates_created =
      snap.SumAll("spex_output_candidates_created");
  stats.output.candidates_dropped =
      snap.SumAll("spex_output_candidates_dropped");
  stats.output.candidates_emitted =
      snap.SumAll("spex_output_candidates_emitted");
  stats.output.streamed_events = snap.SumAll("spex_output_streamed_events");
  stats.output.buffered_events_peak =
      snap.MaxAll("spex_output_buffered_events_peak");
  stats.output.open_candidates_peak =
      snap.MaxAll("spex_output_open_candidates_peak");
  return stats;
}

obs::ProfileReport SpexEngine::BuildReport(
    const obs::ProfileAccumulator* profiler) const {
  std::string query;
  for (int i = 0; i < graph_->query_count(); ++i) {
    if (i > 0) query += "; ";
    query += graph_->query(i).ToString();
  }
  const obs::MetricsSnapshot snap = context_->metrics.Collect();
  return BuildProfileReport(compiled_.network, std::move(query),
                            events_processed_, profiler,
                            snap.Value("spex_formula_pool_high_water"),
                            snap.Value("spex_formula_pool_allocs"));
}

obs::ProfileReport SpexEngine::Profile() const {
  return BuildReport(profiler_.get());
}

obs::ProfileReport SpexEngine::SampledProfile() const {
  return BuildReport(sample_profiler_.get());
}

int64_t SpexEngine::result_count(int query_id) const {
  assert(query_id >= 0 && query_id < query_count());
  return finalized_ ? compiled_.outputs[query_id]->result_count() : 0;
}

int64_t SpexEngine::certain_result_count(int query_id) const {
  if (certain_results_.empty()) return result_count(query_id);
  return certain_results_[query_id];
}

int64_t SpexEngine::total_result_count() const {
  int64_t total = 0;
  for (const OutputTransducer* output : compiled_.outputs) {
    total += output->result_count();
  }
  return total;
}

int64_t SpexEngine::buffered_events() const {
  int64_t total = 0;
  for (const OutputTransducer* output : compiled_.outputs) {
    total += output->buffered_events();
  }
  return total;
}

int64_t SpexEngine::buffered_bytes() const {
  int64_t total = 0;
  for (const OutputTransducer* output : compiled_.outputs) {
    total += output->buffered_bytes();
  }
  return total;
}

const TransducerTrace* SpexEngine::trace(int node_id) const {
  if (node_id < 0 || node_id >= static_cast<int>(traces_.size())) {
    return nullptr;
  }
  return traces_[node_id].get();
}

const TransducerTrace* SpexEngine::trace(const std::string& name) const {
  for (int i = 0; i < compiled_.network.node_count(); ++i) {
    if (compiled_.network.node(i)->name() == name) return trace(i);
  }
  return nullptr;
}

namespace {

// Shared feeding loop of the one-shot helpers: batched at the configured
// granularity (1 = per event), which also routes every helper-driven test
// through the batch path on batchable queries.
void FeedAll(SpexEngine* engine, const std::vector<StreamEvent>& events,
             int batch_size) {
  if (batch_size <= 1) {
    for (const StreamEvent& e : events) engine->OnEvent(e);
    return;
  }
  const size_t step = static_cast<size_t>(batch_size);
  for (size_t i = 0; i < events.size(); i += step) {
    engine->OnEventBatch(events.data() + i,
                         std::min(step, events.size() - i));
  }
}

}  // namespace

std::vector<std::string> EvaluateToStrings(
    const Expr& query, const std::vector<StreamEvent>& events,
    EngineOptions options) {
  SerializingResultSink sink;
  SpexEngine engine(query, &sink, options);
  FeedAll(&engine, events, options.batch_size);
  return sink.results();
}

std::vector<std::vector<StreamEvent>> EvaluateToFragments(
    const Expr& query, const std::vector<StreamEvent>& events,
    EngineOptions options) {
  CollectingResultSink sink;
  SpexEngine engine(query, &sink, options);
  FeedAll(&engine, events, options.batch_size);
  return sink.results();
}

int64_t CountMatches(const Expr& query, const std::vector<StreamEvent>& events,
                     EngineOptions options) {
  CountingResultSink sink;
  SpexEngine engine(query, &sink, options);
  FeedAll(&engine, events, options.batch_size);
  return sink.results();
}

std::vector<std::string> EvaluateXml(const std::string& query_text,
                                     const std::string& xml) {
  ExprPtr query = MustParseRpeq(query_text);
  SerializingResultSink sink;
  SpexEngine engine(*query, &sink);
  XmlParserOptions parser_options;
  parser_options.symbols = engine.symbol_table();
  XmlParser parser(&engine, parser_options);
  if (!parser.Parse(xml)) {
    std::fprintf(stderr, "EvaluateXml: XML error: %s\n",
                 parser.error().c_str());
    std::abort();
  }
  return sink.results();
}

}  // namespace spex
