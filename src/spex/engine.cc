#include "spex/engine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

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
  // The one instrument (DESIGN.md §8): profile and observe=full time every
  // node batch of every sweep; the trace recorder, when present, receives
  // one span per bracket.
  if (instrumented()) {
    profiler_ = std::make_unique<obs::ProfileAccumulator>(
        compiled_.network.node_count());
    if (obs_ != nullptr && obs_->trace_recorder() != nullptr) {
      profiler_->AttachRecorder(obs_->trace_recorder());
    }
    compiled_.network.SetInstrument(profiler_.get());
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
  // The sweep size, chosen here and nowhere else (DESIGN.md §11).  A
  // network with condition variables sweeps one event at a time: VC/VF/VD/OU
  // share one assignment, so a longer sweep would let a node see a
  // determination from a later event.  Every other network sweeps the whole
  // batch.
  sweep_events_ =
      compiled_.batchable ? std::numeric_limits<size_t>::max() : 1;
  if (guarded_) open_path_.reserve(64);
  run_start_ = std::chrono::steady_clock::now();
  if (options.limits.deadline_ms > 0) {
    deadline_ =
        run_start_ + std::chrono::milliseconds(options.limits.deadline_ms);
  }
  last_watermark_time_ = run_start_;
}

void SpexEngine::OnEvent(const StreamEvent& event) {
  OnEventBatch(&event, 1);
}

void SpexEngine::OnEventBatch(const StreamEvent* events, size_t count) {
  assert(finalized_ && "Finalize() before feeding events");
  if (count == 0) return;
  // The sampling draw: one null-check per call when no controller is
  // attached; with one, a thread-local increment and a relaxed load (see
  // obs/sampling_profiler.h).  A winning call is swept with the engine's
  // instrument attached — exactly what a full profile records for it —
  // unless every sweep is timed already.
  const bool sampled = sampler_ctl_ != nullptr &&
                       sampler_ctl_->ShouldSample() && !instrumented();
  if (sampled) [[unlikely]] {
    if (profiler_ == nullptr) {
      profiler_ = std::make_unique<obs::ProfileAccumulator>(
          compiled_.network.node_count());
    }
    compiled_.network.SetInstrument(profiler_.get());
  }
  // The resource governor costs this one branch when disabled (DESIGN.md
  // §10), mirroring the observability contract in Sweep.
  if (!guarded_) [[likely]] {
    DeliverEventBatch(events, count);
  } else {
    GovernedBatch(events, count);
  }
  if (sampled) [[unlikely]] {
    compiled_.network.SetInstrument(nullptr);
    ++sampled_batches_;
  }
}

void SpexEngine::FlushOutputs() {
  for (OutputTransducer* output : compiled_.outputs) output->Flush();
}

void SpexEngine::DeliverEventBatch(const StreamEvent* events, size_t count) {
  while (count > 0) {
    const size_t swept = Sweep(events, count);
    events += swept;
    count -= swept;
  }
}

size_t SpexEngine::Sweep(const StreamEvent* events, size_t count) {
  // Zero-copy delivery: each message borrows its event, which outlives the
  // sweep.  Labels a parser did not stamp are interned here, so the label
  // transducers always take the integer fast path.  A sweep ends just past
  // </$>: the output transducers flush before anything that bogusly
  // follows it.
  count = std::min(count, sweep_events_);
  message_batch_.clear();
  message_batch_.reserve(count);
  SymbolTable* symbols = context_->symbol_table();
  size_t n = 0;
  while (n < count) {
    const StreamEvent& e = events[n++];
    Message m = Message::DocumentRef(e);
    if (m.symbol == kNoSymbol && e.kind == EventKind::kStartElement) {
      m.symbol = symbols->Intern(e.name);
    }
    message_batch_.push_back(std::move(m));
    if (e.kind == EventKind::kEndDocument) break;
  }
  const bool saw_end = events[n - 1].kind == EventKind::kEndDocument;
  events_processed_ += static_cast<int64_t>(n);
  // Observability costs this one branch when disabled (DESIGN.md §7).
  if (!observed_path_) [[likely]] {
    compiled_.network.DeliverBatch(compiled_.input_node, 0, &message_batch_);
  } else {
    if (obs_ != nullptr) {
      obs_->ObserveDelivery(events[n - 1].kind, events_processed_,
                            static_cast<int64_t>(n), [&] {
                              compiled_.network.DeliverBatch(
                                  compiled_.input_node, 0, &message_batch_);
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
  // The sweep has fully propagated: with eager updates, formulas referring
  // to a retired variable were rewritten while its determination travelled,
  // so the binding can go (lazy mode and order axes keep every binding).
  RunContext& context = *context_;
  if (context.options.eager_formula_update && context.allow_variable_gc &&
      !context.retired_variables.empty()) {
    for (VarId v : context.retired_variables) context.assignment.Erase(v);
    context.retired_variables.clear();
  }
  return n;
}

void SpexEngine::GovernedBatch(const StreamEvent* events, size_t count) {
  if (!status_.ok()) return;  // poisoned: the rest of the stream is dropped
  const EngineLimits& limits = context_->options.limits;
  // At most one clock read per call, and one per 256 events for a run fed
  // one event per call.
  if (limits.deadline_ms > 0 &&
      (count > 1 || (events_processed_ & 255) == 0) &&
      std::chrono::steady_clock::now() > deadline_) {
    FailRun(Status::DeadlineExceeded(
        "deadline_ms exceeded (" + std::to_string(limits.deadline_ms) + ")"));
    return;
  }
  // The byte limits sample occupancy after every event; batching would
  // coarsen the breach point, so those runs deliver one event at a time.
  const bool post_checks =
      limits.max_buffered_bytes > 0 || limits.max_formula_bytes > 0;
  Status breach;
  while (count > 0 && breach.ok()) {
    // Per-event pre-checks build the admissible prefix: exactly the events
    // a per-event run would deliver before the breach.  An event is
    // rejected before it is tracked, so open_path_ always matches what the
    // network actually saw.
    const size_t span = post_checks ? 1 : count;
    size_t admitted = 0;
    for (; admitted < span; ++admitted) {
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
    events += admitted;
    count -= admitted;
    // Post-checks: memory the event's delivery actually pinned.  Skipped
    // once the stream completed — after end-document the run already
    // flushed and decided everything, and the thread-shared formula arena
    // may still hold *other* sessions' live nodes, which must not fail a
    // finished run.
    if (!post_checks || !breach.ok() || document_ended_) continue;
    if (limits.max_buffered_bytes > 0 &&
        buffered_bytes() > limits.max_buffered_bytes) {
      breach = Status::ResourceExhausted(
          "max_buffered_bytes exceeded (" +
          std::to_string(limits.max_buffered_bytes) + ")");
    } else if (limits.max_formula_bytes > 0 &&
               Formula::GetPoolStats().live *
                       static_cast<int64_t>(sizeof(internal::FormulaNode)) >
                   limits.max_formula_bytes) {
      breach = Status::ResourceExhausted(
          "max_formula_bytes exceeded (" +
          std::to_string(limits.max_formula_bytes) + ")");
    }
  }
  if (!breach.ok()) FailRun(std::move(breach));
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
  // Seal below the governor: DeliverEventBatch skips the limit checks, so
  // the virtual closes reach the network even on a poisoned run and do not
  // re-trip the limit being breached.
  SymbolTable* symbols = context_->symbol_table();
  while (!open_path_.empty()) {
    const Symbol label = open_path_.back();
    open_path_.pop_back();
    StreamEvent close = StreamEvent::EndElement(symbols->Name(label));
    close.label = label;
    DeliverEventBatch(&close, 1);
  }
  const StreamEvent end = StreamEvent::EndDocument();
  DeliverEventBatch(&end, 1);  // flushes OUs, decides candidates
  return status_;
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

obs::ProfileReport SpexEngine::Profile() const {
  std::string query;
  for (int i = 0; i < graph_->query_count(); ++i) {
    if (i > 0) query += "; ";
    query += graph_->query(i).ToString();
  }
  const obs::MetricsSnapshot snap = context_->metrics.Collect();
  return BuildProfileReport(compiled_.network, std::move(query),
                            events_processed_, profiler_.get(),
                            snap.Value("spex_formula_pool_high_water"),
                            snap.Value("spex_formula_pool_allocs"));
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

// Shared feeding loop of the one-shot helpers, batched at the configured
// granularity (1 = per event).
void FeedAll(SpexEngine* engine, const std::vector<StreamEvent>& events,
             int batch_size) {
  const size_t step = batch_size > 1 ? static_cast<size_t>(batch_size) : 1;
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
