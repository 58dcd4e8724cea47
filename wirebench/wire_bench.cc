// End-to-end benchmark of the SPEX serving stack: an in-process NetServer
// over an EnginePool and a CompiledQueryCache, driven over loopback by a
// closed loop of wire clients.
//
//   wire_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--spans PATH]
//
// A run generates kDistinctDocs DMOZ-like documents from --seed (the server
// receives nothing else), computes their expected answers with the DOM
// oracle (baseline/dom_evaluator), sets the serving stack up kSetups times
// (timing each set-up), warms it with every document once, then measures.
// The load is a closed loop: one or two client threads (per workload) with
// one connection each, each sending its next document only once the
// previous one's DOC_DONE (or ERROR) arrived.  Every RESULT frame is
// compared with the oracle as it arrives; a mismatch fails the run.
// Documents that fail (ERROR frame, shed, transport error) are counted,
// never fatal.
//
// --trace 0 measures the end-to-end metrics for S seconds.  --trace 1 runs
// an untraced and a traced closed loop (their difference is the tracing
// overhead), reads the pool and server registries over the traced loop,
// and times the layer ledger: the same documents through parse, engine,
// parse+engine, +serialization, one pool session and one wire client.
// Spans are kept in memory and written to --spans as JSON lines at the end.
//
// Every metric is printed by name and unit on stderr; the last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}.  The
// exit code is 0 unless set-up failed or a result differed from the oracle.

#include <malloc.h>
#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baseline/dom_evaluator.h"
#include "net/client.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "rpeq/parser.h"
#include "runtime/engine_pool.h"
#include "runtime/query_cache.h"
#include "spex/engine.h"
#include "spex/multi_query.h"
#include "xml/dom.h"
#include "xml/generators.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

// ---------------------------------------------------------------------------
// Heap allocations per thread.  Thread-local, so the count taken around an
// engine run on the main thread is exact whatever the server threads do.

namespace {
thread_local int64_t t_allocs = 0;
}  // namespace

// The replacement operators pair malloc with free correctly; GCC flags the
// mix of new-expression and free-based implementation anyway.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++t_allocs;
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace spex {
namespace {

// ---------------------------------------------------------------------------
// Workloads and fixed run shape.

struct Workload {
  const char* name;
  const char* query;  // single-query workloads; null for the population
  int profiles;       // subscriber profiles in one kPopulation PREPARE
  double scale;       // GenerateDmozLike(content=true) scale per document
  int clients;        // closed-loop connections, one thread each
};

// The server harvests finished sessions on a 15 ms poll tick, restarted by
// every socket wake-up.  plain_small runs one client: its documents finish
// well inside one tick, and with two clients each one's frames wake the
// loop that pumps the other's completion, so the pair locks into either a
// ~3 ms or a ~17 ms p50 regime for seconds at a time.  The heavier
// workloads keep two clients: alone, a document taking several ticks
// snaps to a whole number of them, and a small change in engine time moves
// latency by a full tick.
constexpr Workload kWorkloads[] = {
    // ~240 KiB, ~25k events, ~1k results per document.
    {"qualifier_large", "_*.Topic[link].Title", 0, 0.001, 2},
    // ~24 KiB, ~2.5k events, ~140 results per document.
    {"plain_small", "_*.Topic.Title", 0, 0.0001, 1},
    // ~96 KiB, ~10k events, ~10.3k results per document over 25 slots.
    {"population_1k", nullptr, 1000, 0.0004, 2},
};

constexpr int kPoolThreads = 2;    // engine pool workers
constexpr int kDistinctDocs = 4;   // documents generated per seed
constexpr int kSetups = 31;        // set-ups timed per run (median reported)
constexpr size_t kChunkBytes = 16 * 1024;  // STREAM frame payload
constexpr size_t kFeedBatch = 1024;  // NetServerOptions::feed_batch_events

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Resident set size right now, in MiB.
double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0;
  long resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<double>(resident) *
                      static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0
                : 0;
}

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

// Overlapping subscriber profiles over the DMOZ vocabulary, the generator
// shape of bench/subscription_matching and `spexserve --subscription-count`:
// 1000 profiles collapse into 25 canonical slots.
std::vector<std::string> MakeProfiles(int n) {
  static const char* kQualifiers[] = {"editor", "newsGroup", "Description",
                                      "link"};
  static const char* kFields[] = {"Title", "Description", "link",
                                  "lastUpdate", "editor"};
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string q = "_*.Topic";
    if (i % 3 == 1) q += "[" + std::string(kQualifiers[i % 4]) + "]";
    if (i % 3 == 2) q += "[editor]";
    q += "." + std::string(kFields[(i / 3) % 5]);
    out.push_back(std::move(q));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and document, kept in memory per thread
// and written out when the run ends.

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;  // index in the same log, -1 for a root
  int64_t doc;
};

class SpanLog {
 public:
  int Begin(const char* name, int64_t doc, int parent) {
    spans_.push_back(Span{name, NowNs(), 0, parent, doc});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Records one span when `log` is non-null; free otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t doc, int parent = -1)
      : log_(log), id_(log != nullptr ? log->Begin(name, doc, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// Summed self time (duration minus the children's) of the spans named
// `name` whose root span is named `root`.
double SelfNs(const SpanLog& log, const char* root, const char* name) {
  const std::vector<Span>& spans = log.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  double total = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) != 0) continue;
    size_t top = i;
    while (spans[top].parent >= 0) top = static_cast<size_t>(spans[top].parent);
    if (std::strcmp(spans[top].name, root) != 0) continue;
    total += static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                 child_ns[i]);
  }
  return total;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->spans()) {
      std::fprintf(f,
                   "{\"log\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"doc\": %lld}\n",
                   t, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.doc));
    }
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Inputs: the generated documents and their oracle answers.

struct Input {
  std::string xml;
  std::vector<StreamEvent> events;  // what the server's parser produces
  // Oracle fragments per slot (one slot for a single query), in order.
  std::vector<std::vector<std::string>> expected;
  uint64_t expected_total = 0;
};

// The compiled forms of the workload's query, shared by the ledger.
struct Templates {
  std::shared_ptr<const QueryTemplate> single;
  std::shared_ptr<const MultiQueryTemplate> multi;
};

class DiscardEventSink : public EventSink {
 public:
  void OnEvent(const StreamEvent&) override {}
  void OnEventBatch(const StreamEvent*, size_t) override {}
};

std::vector<Input> MakeInputs(const Workload& w, uint64_t seed,
                              const Templates& templates) {
  std::vector<Input> inputs;
  for (int i = 0; i < kDistinctDocs; ++i) {
    Input in;
    XmlWriter writer;
    GenerateDmozLike(seed * 1000003ULL + static_cast<uint64_t>(i), w.scale,
                     /*content=*/true, &writer);
    in.xml = writer.str();
    RecordingEventSink recorder;
    XmlParser parser(&recorder);
    if (!parser.Parse(in.xml)) {
      std::fprintf(stderr, "generated document does not parse: %s\n",
                   parser.error().c_str());
      std::exit(1);
    }
    in.events = recorder.events();
    Document dom;
    std::string error;
    if (!ParseXmlToDocument(in.xml, &dom, &error)) {
      std::fprintf(stderr, "oracle cannot parse document: %s\n",
                   error.c_str());
      std::exit(1);
    }
    if (templates.multi != nullptr) {
      for (int s = 0; s < templates.multi->slot_count(); ++s) {
        in.expected.push_back(
            DomEvaluateToStrings(templates.multi->slot_expr(s), dom));
      }
    } else {
      in.expected.push_back(
          DomEvaluateToStrings(*MustParseRpeq(w.query), dom));
    }
    for (const auto& slot : in.expected) in.expected_total += slot.size();
    inputs.push_back(std::move(in));
  }
  return inputs;
}

// True when per-slot fragment lists equal the oracle's, in order.
bool SameAsOracle(const Input& in,
                  const std::vector<const std::vector<std::string>*>& got) {
  if (got.size() != in.expected.size()) return false;
  for (size_t s = 0; s < got.size(); ++s) {
    if (*got[s] != in.expected[s]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The serving stack and its clients.

struct Stack {
  // Declaration order is teardown order reversed: clients close first, then
  // the server stops, then the cache and pool it points into go.
  std::unique_ptr<EnginePool> pool;
  std::unique_ptr<CompiledQueryCache> cache;
  std::unique_ptr<net::NetServer> server;
  std::vector<std::unique_ptr<net::SpexClient>> clients;
  std::vector<uint32_t> handles;
  std::vector<uint32_t> next_doc_id;
  double setup_s = 0;     // pool + server start, Connect/HELLO, PREPARE
  double prepare_ms = 0;  // first PREPARE round trip (a cache miss)
};

net::ClientOptions ClientOpts() {
  net::ClientOptions o;
  o.client_name = "wire_bench";
  o.chunk_bytes = kChunkBytes;
  o.io_timeout_ms = 20000;
  return o;
}

struct PrepareText {
  std::string text;
  uint8_t kind = net::PrepareFrame::kQuery;
};

// Connects client `c` and PREPAREs the workload's query on it; with
// `prepare_ms`, times the PREPARE round trip.
Status ConnectClient(Stack* stack, int c, const PrepareText& prepare,
                     double* prepare_ms = nullptr) {
  net::SpexClient* client = stack->clients[static_cast<size_t>(c)].get();
  Status st = client->Connect("127.0.0.1", stack->server->port());
  if (!st.ok()) return st;
  const int64_t t0 = NowNs();
  st = client->Prepare(prepare.text, prepare.kind,
                       &stack->handles[static_cast<size_t>(c)]);
  if (prepare_ms != nullptr) {
    *prepare_ms = static_cast<double>(NowNs() - t0) / 1e6;
  }
  return st;
}

StatusOr<std::unique_ptr<Stack>> OpenStack(const PrepareText& prepare,
                                           int clients) {
  auto stack = std::make_unique<Stack>();
  const int64_t t0 = NowNs();
  PoolOptions pool_options;
  pool_options.threads = kPoolThreads;
  stack->pool = std::make_unique<EnginePool>(pool_options);
  stack->cache = std::make_unique<CompiledQueryCache>(16);
  stack->server = std::make_unique<net::NetServer>(stack->pool.get(),
                                                   stack->cache.get());
  std::string error;
  if (!stack->server->Start(&error)) {
    return Status::Unavailable("server start failed: " + error);
  }
  stack->handles.assign(static_cast<size_t>(clients), 0);
  stack->next_doc_id.assign(static_cast<size_t>(clients), 0);
  for (int c = 0; c < clients; ++c) {
    stack->clients.push_back(std::make_unique<net::SpexClient>(ClientOpts()));
    Status st = ConnectClient(stack.get(), c, prepare,
                              c == 0 ? &stack->prepare_ms : nullptr);
    if (!st.ok()) return st;
  }
  stack->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return stack;
}

// ---------------------------------------------------------------------------
// One document over the wire.

struct DocRecord {
  int64_t start_ns = 0;         // first STREAM byte about to be written
  int64_t first_result_ns = 0;  // first RESULT frame decoded (0 = none)
  int64_t end_doc_ns = 0;       // END_DOC written
  int64_t end_ns = 0;           // terminal frame decoded
  int64_t send_ns = 0;          // time inside SendChunk + SendEndDoc
  bool ok = false;              // DOC_DONE with exactly the oracle's results
  bool mismatch = false;        // DOC_DONE but results differ from the oracle
  bool transport_error = false;
};

// Compares RESULT frames with the oracle as they arrive.
class ResultChecker {
 public:
  explicit ResultChecker(const Input& in)
      : in_(in), next_(in.expected.size(), 0) {}

  void OnResult(uint32_t slot, bool certain, std::string_view fragment) {
    if (slot >= next_.size() || !certain) {
      mismatch_ = true;
      return;
    }
    const std::vector<std::string>& expected = in_.expected[slot];
    size_t& i = next_[slot];
    if (i >= expected.size() || expected[i] != fragment) mismatch_ = true;
    ++i;
  }

  bool Matches(uint64_t certain, uint64_t total) const {
    if (mismatch_ || certain != total || total != in_.expected_total) {
      return false;
    }
    for (size_t s = 0; s < next_.size(); ++s) {
      if (next_[s] != in_.expected[s].size()) return false;
    }
    return true;
  }

 private:
  const Input& in_;
  std::vector<size_t> next_;
  bool mismatch_ = false;
};

bool Readable(int fd) {
  pollfd p{fd, POLLIN, 0};
  return poll(&p, 1, 0) > 0 && (p.revents & (POLLIN | POLLHUP | POLLERR));
}

// Handles one frame of document `doc_id`; true once it was the terminal.
// A frame that cannot be decoded is a transport error.
bool HandleFrame(const net::OwnedFrame& frame, uint32_t doc_id,
                 ResultChecker* check, DocRecord* r) {
  switch (frame.type) {
    case net::FrameType::kResult: {
      net::ResultFrame rf;
      if (!rf.Parse(frame.payload).ok()) break;
      if (rf.doc_id != doc_id) return false;
      if (r->first_result_ns == 0) r->first_result_ns = NowNs();
      check->OnResult(rf.slot, rf.certain != 0, rf.fragment);
      return false;
    }
    case net::FrameType::kDocDone: {
      net::DocDoneFrame done;
      if (!done.Parse(frame.payload).ok()) break;
      if (done.doc_id != doc_id) return false;
      r->end_ns = NowNs();
      r->ok = check->Matches(done.certain, done.total);
      r->mismatch = !r->ok;
      return true;
    }
    case net::FrameType::kError: {
      net::ErrorFrame err;
      if (!err.Parse(frame.payload).ok()) break;
      if (err.doc_id != 0 && err.doc_id != doc_id) return false;
      r->end_ns = NowNs();
      std::fprintf(stderr, "document %u failed: %s %s\n", doc_id,
                   StatusCodeName(err.code), err.message.c_str());
      return true;
    }
    case net::FrameType::kDrain:
    case net::FrameType::kPong:
      return false;
    default:
      break;
  }
  r->end_ns = NowNs();
  r->transport_error = true;
  return true;
}

// Streams `in` as document `doc_id` in kChunkBytes STREAM frames, reading
// whatever frames arrived between chunk sends, then END_DOC and the rest up
// to the terminal frame.  With `spans`, records net.doc > {net.send,
// net.read, net.await}, net.doc under `parent_span`.
DocRecord StreamOne(net::SpexClient* client, uint32_t handle, uint32_t doc_id,
                    const Input& in, SpanLog* spans, int64_t span_doc,
                    int parent_span = -1) {
  DocRecord r;
  ResultChecker check(in);
  ScopedSpan doc_span(spans, "net.doc", span_doc, parent_span);
  bool terminal = false;
  auto read_one = [&]() {
    net::OwnedFrame frame;
    if (!client->ReadFrame(&frame).ok()) {
      r.end_ns = NowNs();
      r.transport_error = true;
      return true;
    }
    return HandleFrame(frame, doc_id, &check, &r);
  };
  auto send = [&](auto&& fn) {
    ScopedSpan s(spans, "net.send", span_doc, doc_span.id());
    const int64_t t0 = NowNs();
    const Status st = fn();
    r.send_ns += NowNs() - t0;
    if (!st.ok()) {
      r.end_ns = NowNs();
      r.transport_error = true;
      terminal = true;
    }
  };

  r.start_ns = NowNs();
  const std::string_view xml(in.xml);
  size_t offset = 0;
  while (!terminal && offset < xml.size()) {
    const size_t len = std::min(kChunkBytes, xml.size() - offset);
    send([&] {
      return client->SendChunk(handle, doc_id, xml.substr(offset, len));
    });
    offset += len;
    if (!terminal && Readable(client->fd())) {
      ScopedSpan s(spans, "net.read", span_doc, doc_span.id());
      while (!terminal && Readable(client->fd())) terminal = read_one();
    }
  }
  // END_DOC also retires a document the server already refused mid-stream.
  if (!r.transport_error) {
    send([&] { return client->SendEndDoc(handle, doc_id); });
  }
  r.end_doc_ns = NowNs();
  ScopedSpan await(spans, "net.await", span_doc, doc_span.id());
  while (!terminal) terminal = read_one();
  return r;
}

// ---------------------------------------------------------------------------
// The closed loop.

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;  // ERROR frames, sheds, transport errors, mismatches
  int64_t mismatched = 0;
  int64_t transport_errors = 0;

  void Add(const DocRecord& r) {
    ++attempted;
    if (!r.ok) ++failed;
    if (r.mismatch) ++mismatched;
    if (r.transport_error) ++transport_errors;
  }
  void Add(const Tally& t) {
    attempted += t.attempted;
    failed += t.failed;
    mismatched += t.mismatched;
    transport_errors += t.transport_errors;
  }
};

struct ClientRun {
  std::vector<DocRecord> ok_docs;
  Tally tally;
  SpanLog spans;
  int64_t finished_ns = 0;  // after the client's last terminal frame
};

// Client `c` sends documents back to back: `count` of them, or until
// `deadline_ns` when count < 0.  A transport error reconnects once.
void RunClient(Stack* stack, int c, const PrepareText& prepare,
               const std::vector<Input>& inputs, int count,
               int64_t deadline_ns, bool traced, ClientRun* out) {
  const size_t ci = static_cast<size_t>(c);
  for (int i = 0; count < 0 ? NowNs() < deadline_ns : i < count; ++i) {
    const Input& in = inputs[(ci + static_cast<size_t>(i)) % inputs.size()];
    const uint32_t doc_id = ++stack->next_doc_id[ci];
    DocRecord r = StreamOne(stack->clients[ci].get(), stack->handles[ci],
                            doc_id, in, traced ? &out->spans : nullptr,
                            (static_cast<int64_t>(c) << 32) | doc_id);
    out->tally.Add(r);
    if (r.ok) out->ok_docs.push_back(r);
    if (r.transport_error && !ConnectClient(stack, c, prepare).ok()) break;
  }
}

struct LoopResult {
  double seconds = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;  // sampled every 50 ms while the clients run
  std::vector<DocRecord> ok_docs;
  Tally tally;
  std::vector<std::unique_ptr<ClientRun>> runs;  // spans live here
};

// All clients at once: `count` documents each, or for `seconds` (count < 0).
LoopResult RunLoop(Stack* stack, const PrepareText& prepare,
                   const std::vector<Input>& inputs, int count,
                   double seconds, bool traced) {
  LoopResult out;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  const int clients = static_cast<int>(stack->clients.size());
  std::atomic<int> running{clients};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    out.runs.push_back(std::make_unique<ClientRun>());
    threads.emplace_back([&, c, run = out.runs.back().get()] {
      RunClient(stack, c, prepare, inputs, count, deadline, traced, run);
      run->finished_ns = NowNs();
      running.fetch_sub(1);
    });
  }
  out.peak_rss_mb = RssMb();
  while (running.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    out.peak_rss_mb = std::max(out.peak_rss_mb, RssMb());
  }
  for (std::thread& t : threads) t.join();
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  int64_t end_ns = t0;
  for (const auto& run : out.runs) {
    end_ns = std::max(end_ns, run->finished_ns);
    out.ok_docs.insert(out.ok_docs.end(), run->ok_docs.begin(),
                       run->ok_docs.end());
    out.tally.Add(run->tally);
  }
  out.seconds = static_cast<double>(end_ns - t0) / 1e9;
  return out;
}

struct EndToEnd {
  double docs_per_s = 0;
  double latency_p50_ms = 0;
  double latency_p95_ms = 0;
  double first_result_p50_ms = 0;
  double cpu_ms_per_doc = 0;
};

EndToEnd Summarize(const LoopResult& loop) {
  EndToEnd e;
  std::vector<double> latency_ms;
  std::vector<double> first_ms;
  for (const DocRecord& r : loop.ok_docs) {
    latency_ms.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
    const int64_t first =
        r.first_result_ns != 0 ? r.first_result_ns : r.end_ns;
    first_ms.push_back(static_cast<double>(first - r.start_ns) / 1e6);
  }
  const double docs = static_cast<double>(loop.ok_docs.size());
  e.docs_per_s = docs / loop.seconds;
  e.latency_p50_ms = Percentile(latency_ms, 0.50);
  e.latency_p95_ms = Percentile(latency_ms, 0.95);
  e.first_result_p50_ms = Percentile(first_ms, 0.50);
  e.cpu_ms_per_doc = docs > 0 ? loop.cpu_s * 1e3 / docs : 0;
  return e;
}

// ---------------------------------------------------------------------------
// Registry deltas (pool and server meters over one window).

struct MergedHistogram {
  std::vector<int64_t> buckets = std::vector<int64_t>(64, 0);
  int64_t count = 0;
  int64_t max = 0;
};

MergedHistogram Merge(const obs::MetricsSnapshot& snap,
                      std::string_view name) {
  MergedHistogram h;
  for (const obs::MetricSample& s : snap.samples) {
    if (s.name != name) continue;
    for (size_t i = 0; i < s.buckets.size() && i < h.buckets.size(); ++i) {
      h.buckets[i] += s.buckets[i];
    }
    h.count += s.count;
    h.max = std::max(h.max, s.max);
  }
  return h;
}

double DeltaQuantile(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after, std::string_view name,
                     double q) {
  const MergedHistogram a = Merge(before, name);
  MergedHistogram b = Merge(after, name);
  for (size_t i = 0; i < b.buckets.size(); ++i) b.buckets[i] -= a.buckets[i];
  return obs::HistogramQuantileFromBuckets(
      b.buckets.data(), static_cast<int>(b.buckets.size()), b.count - a.count,
      b.max, q);
}

int64_t Delta(const obs::MetricsSnapshot& before,
              const obs::MetricsSnapshot& after, std::string_view name) {
  return after.SumAll(name) - before.SumAll(name);
}

// ---------------------------------------------------------------------------
// Layer ledger: one document and query timed through each layer in turn.

// One document's engine for the workload's query: a SpexEngine, or a
// MultiQueryEngine with one collector per slot.  Serializing sinks keep
// fragment text (and can be checked against the oracle); counting sinks
// keep only counts.
class LedgerEngine {
 public:
  LedgerEngine(const Templates& t, bool serialize) {
    const int slots = t.multi != nullptr ? t.multi->slot_count() : 1;
    std::vector<ResultSink*> sinks;
    for (int s = 0; s < slots; ++s) {
      if (serialize) {
        serializing_.push_back(std::make_unique<SerializingResultSink>());
        sinks.push_back(serializing_.back().get());
      } else {
        counting_.push_back(std::make_unique<CountingResultSink>());
        sinks.push_back(counting_.back().get());
      }
    }
    if (t.multi != nullptr) {
      multi_ = std::make_unique<MultiQueryEngine>(t.multi, sinks);
    } else {
      single_ = std::make_unique<SpexEngine>(t.single, sinks[0]);
    }
  }

  EventSink* sink() {
    return multi_ != nullptr ? static_cast<EventSink*>(multi_.get())
                             : static_cast<EventSink*>(single_.get());
  }

  // Pre-parsed events in the batches XmlParser hands on by default, so the
  // engine step differs from parse+engine by the parse alone.
  void Feed(const std::vector<StreamEvent>& events) {
    const size_t batch =
        static_cast<size_t>(XmlParserOptions().event_batch_size);
    for (size_t i = 0; i < events.size(); i += batch) {
      sink()->OnEventBatch(events.data() + i,
                           std::min(batch, events.size() - i));
    }
  }

  // Serializing engines only.
  bool MatchesOracle(const Input& in) const {
    std::vector<const std::vector<std::string>*> got;
    for (const auto& s : serializing_) got.push_back(&s->results());
    return SameAsOracle(in, got);
  }

  obs::MetricsSnapshot Collect() const {
    return multi_ != nullptr ? multi_->metrics().Collect()
                             : single_->metrics().Collect();
  }
  int degree(const obs::MetricsSnapshot& snap) const {
    return multi_ != nullptr
               ? multi_->shared_degree()
               : static_cast<int>(snap.Value("spex_network_transducers"));
  }

 private:
  std::vector<std::unique_ptr<CountingResultSink>> counting_;
  std::vector<std::unique_ptr<SerializingResultSink>> serializing_;
  std::unique_ptr<SpexEngine> single_;
  std::unique_ptr<MultiQueryEngine> multi_;
};

// Records a spex.engine span around every batch the parser hands on.
class SpanningSink : public EventSink {
 public:
  SpanningSink(EventSink* inner, SpanLog* spans, int64_t doc, int parent)
      : inner_(inner), spans_(spans), doc_(doc), parent_(parent) {}
  void OnEvent(const StreamEvent& event) override { OnEventBatch(&event, 1); }
  void OnEventBatch(const StreamEvent* events, size_t count) override {
    ScopedSpan s(spans_, "spex.engine", doc_, parent_);
    inner_->OnEventBatch(events, count);
  }

 private:
  EventSink* inner_;
  SpanLog* spans_;
  int64_t doc_;
  int parent_;
};

// Buffers parsed events into kFeedBatch slices for a pool session, as the
// server's per-document parser does.
class SessionFeeder : public EventSink {
 public:
  explicit SessionFeeder(StreamSession* session) : session_(session) {}
  void OnEvent(const StreamEvent& event) override {
    pending_.push_back(event);
    if (pending_.size() >= kFeedBatch) Flush();
  }
  void Flush() {
    if (pending_.empty()) return;
    session_->Feed(std::move(pending_));
    pending_ = {};
  }

 private:
  StreamSession* session_;
  std::vector<StreamEvent> pending_;
};

struct LedgerContext {
  const Templates* templates;
  const std::vector<Input>* inputs;
  Stack* stack;  // pool and client 0 for the upper two steps
  SpanLog* spans;
  bool ok = true;   // every serialized result equals the oracle
  Tally wire = {};  // documents sent by the wire step
};

using LedgerStep = void (*)(LedgerContext*, size_t doc, int span);

void StepParse(LedgerContext* ctx, size_t doc, int span) {
  DiscardEventSink sink;
  XmlParser parser(&sink);
  ScopedSpan s(ctx->spans, "xml.parse", static_cast<int64_t>(doc), span);
  if (!parser.Parse((*ctx->inputs)[doc].xml)) ctx->ok = false;
}

void StepEngine(LedgerContext* ctx, size_t doc, int span) {
  ScopedSpan s(ctx->spans, "spex.engine", static_cast<int64_t>(doc), span);
  LedgerEngine engine(*ctx->templates, /*serialize=*/false);
  engine.Feed((*ctx->inputs)[doc].events);
}

void ParseInto(LedgerContext* ctx, size_t doc, int span,
               LedgerEngine* engine) {
  ScopedSpan s(ctx->spans, "xml.parse", static_cast<int64_t>(doc), span);
  SpanningSink spanning(engine->sink(), ctx->spans, static_cast<int64_t>(doc),
                        s.id());
  XmlParser parser(&spanning);
  if (!parser.Parse((*ctx->inputs)[doc].xml)) ctx->ok = false;
}

void StepParseEngine(LedgerContext* ctx, size_t doc, int span) {
  LedgerEngine engine(*ctx->templates, /*serialize=*/false);
  ParseInto(ctx, doc, span, &engine);
}

void StepSerialize(LedgerContext* ctx, size_t doc, int span) {
  LedgerEngine engine(*ctx->templates, /*serialize=*/true);
  ParseInto(ctx, doc, span, &engine);
  if (!engine.MatchesOracle((*ctx->inputs)[doc])) ctx->ok = false;
}

void StepPool(LedgerContext* ctx, size_t doc, int span) {
  const Input& in = (*ctx->inputs)[doc];
  EnginePool* pool = ctx->stack->pool.get();
  std::shared_ptr<StreamSession> session =
      ctx->templates->multi != nullptr
          ? pool->OpenSubscriptions(ctx->templates->multi)
          : pool->OpenSession(ctx->templates->single);
  {
    ScopedSpan s(ctx->spans, "runtime.feed", static_cast<int64_t>(doc), span);
    SessionFeeder feeder(session.get());
    XmlParser parser(&feeder);
    if (!parser.Parse(in.xml)) ctx->ok = false;
    feeder.Flush();
    session->Close();
  }
  ScopedSpan s(ctx->spans, "runtime.wait", static_cast<int64_t>(doc), span);
  const std::vector<std::string>& flat = session->Wait();
  std::vector<const std::vector<std::string>*> got;
  if (session->subscription()) {
    for (size_t slot = 0; slot < in.expected.size(); ++slot) {
      got.push_back(&session->subscription_results(static_cast<int>(slot)));
    }
  } else {
    got.push_back(&flat);
  }
  if (!session->status().ok() || !SameAsOracle(in, got)) ctx->ok = false;
}

void StepWire(LedgerContext* ctx, size_t doc, int span) {
  Stack* stack = ctx->stack;
  const uint32_t doc_id = ++stack->next_doc_id[0];
  const DocRecord r = StreamOne(stack->clients[0].get(), stack->handles[0],
                                doc_id, (*ctx->inputs)[doc], ctx->spans,
                                static_cast<int64_t>(doc), span);
  ctx->wire.Add(r);
  if (r.mismatch) ctx->ok = false;
}

struct LedgerRow {
  const char* metric;
  const char* span;
  LedgerStep step;
};

// Timed in this order.  The wire step goes first, while client 0's
// connection is fresh from the traced loop: the server closes connections
// idle for 30 s, and the other steps can take that long on a slow host.
constexpr LedgerRow kLedger[] = {
    {"net.wire_ns_per_event", "ledger.wire", StepWire},
    {"xml.parse_ns_per_event", "ledger.parse", StepParse},
    {"spex.engine_ns_per_event", "ledger.engine", StepEngine},
    {"ledger.parse_engine_ns_per_event", "ledger.parse_engine",
     StepParseEngine},
    {"ledger.serialize_ns_per_event", "ledger.serialize", StepSerialize},
    {"runtime.pool_ns_per_event", "ledger.pool", StepPool},
};

// Runs `row` over every input in turn, whole cycles, until `budget_s` has
// passed; returns the median over cycles of ns per parsed event.
double TimeLedgerRow(const LedgerRow& row, LedgerContext* ctx,
                     double budget_s) {
  std::vector<double> per_cycle;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  do {
    int64_t ns = 0;
    int64_t events = 0;
    for (size_t d = 0; d < ctx->inputs->size(); ++d) {
      ScopedSpan root(ctx->spans, row.span, static_cast<int64_t>(d));
      const int64_t t0 = NowNs();
      row.step(ctx, d, root.id());
      ns += NowNs() - t0;
      events += static_cast<int64_t>((*ctx->inputs)[d].events.size());
    }
    per_cycle.push_back(static_cast<double>(ns) / static_cast<double>(events));
  } while (NowNs() < deadline);
  return Median(per_cycle);
}

// Host-independent work counters of one engine pass over every input.
struct SpexCounters {
  double messages_per_event = 0;
  double allocs_per_event = 0;
  double network_degree = 0;
  double peak_buffered_events = 0;
};

SpexCounters CountSpexWork(const Templates& templates,
                           const std::vector<Input>& inputs) {
  SpexCounters out;
  int64_t events = 0;
  int64_t messages = 0;
  int64_t allocs = 0;
  for (const Input& in : inputs) {
    LedgerEngine engine(templates, /*serialize=*/false);
    const int64_t a0 = t_allocs;
    engine.Feed(in.events);
    allocs += t_allocs - a0;
    const obs::MetricsSnapshot snap = engine.Collect();
    events += static_cast<int64_t>(in.events.size());
    messages += snap.SumAll("spex_transducer_messages_in");
    out.network_degree = engine.degree(snap);
    out.peak_buffered_events =
        std::max(out.peak_buffered_events,
                 static_cast<double>(
                     snap.MaxAll("spex_output_buffered_events_peak")));
  }
  out.messages_per_event =
      static_cast<double>(messages) / static_cast<double>(events);
  out.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(events);
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 const Tally& tally) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.10g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty() && args->seconds > 0;
}

// Everything a run shares between its phases.
struct Bench {
  const Workload* workload = nullptr;
  PrepareText prepare;
  Templates templates;
  std::vector<Input> inputs;
  std::unique_ptr<Stack> stack;  // the last set-up; serves the run
  std::vector<double> setup_s;
  std::vector<double> prepare_ms;
  Tally tally;  // every document sent, warm-up included
};

// The end-to-end metrics of one untraced closed loop of `seconds`.  Free
// heap pages go back to the system first, so the sampled peak RSS counts
// what the serving window keeps resident, not set-up leftovers.
std::vector<Metric> MeasureEndToEnd(Bench* b, double seconds) {
  malloc_trim(0);
  const LoopResult loop =
      RunLoop(b->stack.get(), b->prepare, b->inputs, -1, seconds, false);
  b->tally.Add(loop.tally);
  const EndToEnd e = Summarize(loop);
  const size_t n = loop.ok_docs.size();
  std::fprintf(stderr, "measured %zu documents in %.3f s\n", n, loop.seconds);
  if (n < 200) {
    std::fprintf(stderr,
                 "warning: %zu documents leave fewer than 10 beyond p95\n", n);
  }
  return {
      {"docs_per_s", e.docs_per_s, "1/s"},
      {"latency_p50_ms", e.latency_p50_ms, "ms"},
      {"latency_p95_ms", e.latency_p95_ms, "ms"},
      {"first_result_p50_ms", e.first_result_p50_ms, "ms"},
      {"cpu_ms_per_doc", e.cpu_ms_per_doc, "ms"},
      {"peak_rss_mb", loop.peak_rss_mb, "MiB"},
      {"setup_s", Median(b->setup_s), "s"},
      {"ok_share",
       static_cast<double>(b->tally.attempted - b->tally.failed) /
           static_cast<double>(b->tally.attempted),
       "ratio"},
  };
}

// The per-layer metrics: an untraced and a traced closed loop of 0.3 *
// `seconds` each (registry deltas and client spans come from the traced
// one), then the ledger over 0.4 * `seconds`.  Spans go to `spans_path`.
std::vector<Metric> MeasureLayers(Bench* b, double seconds,
                                  const std::string& spans_path,
                                  bool* ledger_ok) {
  Stack* stack = b->stack.get();
  const LoopResult plain =
      RunLoop(stack, b->prepare, b->inputs, -1, 0.3 * seconds, false);
  b->tally.Add(plain.tally);
  const obs::MetricsSnapshot before = stack->pool->metrics().Collect();
  const LoopResult traced =
      RunLoop(stack, b->prepare, b->inputs, -1, 0.3 * seconds, true);
  const obs::MetricsSnapshot after = stack->pool->metrics().Collect();
  b->tally.Add(traced.tally);

  SpanLog ledger_spans;
  LedgerContext ctx{&b->templates, &b->inputs, stack, &ledger_spans};
  std::vector<Metric> out;
  for (const LedgerRow& row : kLedger) {
    const double budget_s = 0.4 * seconds / std::size(kLedger);
    out.push_back({row.metric, TimeLedgerRow(row, &ctx, budget_s),
                   "ns/event"});
  }
  *ledger_ok = ctx.ok;
  b->tally.Add(ctx.wire);

  std::vector<const SpanLog*> logs;
  for (const auto& run : traced.runs) logs.push_back(&run->spans);
  double client_self_ns = 0;
  for (const SpanLog* log : logs) {
    client_self_ns += SelfNs(*log, "net.doc", "net.doc");
  }
  logs.push_back(&ledger_spans);
  if (!spans_path.empty() && !WriteSpans(spans_path, logs)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
  }
  double ledger_events = 0;  // events through the parse+engine step
  for (const Span& s : ledger_spans.spans()) {
    if (std::strcmp(s.name, "ledger.parse_engine") == 0) {
      ledger_events += static_cast<double>(
          b->inputs[static_cast<size_t>(s.doc)].events.size());
    }
  }

  const double docs = static_cast<double>(traced.ok_docs.size());
  double send_ms = 0;
  double await_ms = 0;
  for (const DocRecord& r : traced.ok_docs) {
    send_ms += static_cast<double>(r.send_ns) / 1e6;
    await_ms += static_cast<double>(r.end_ns - r.end_doc_ns) / 1e6;
  }
  auto delta = [&](std::string_view name) {
    return static_cast<double>(Delta(before, after, name));
  };
  const double hits = static_cast<double>(stack->cache->hits());
  const double lookups = hits + static_cast<double>(stack->cache->misses());
  const EndToEnd e_plain = Summarize(plain);
  const EndToEnd e_traced = Summarize(traced);
  const SpexCounters work = CountSpexWork(b->templates, b->inputs);
  const std::vector<Metric> rest = {
      {"spex.messages_per_event", work.messages_per_event, "msgs/event"},
      {"spex.allocs_per_event", work.allocs_per_event, "allocs/event"},
      {"spex.network_degree", work.network_degree, "nodes"},
      {"spex.peak_buffered_events", work.peak_buffered_events, "events"},
      {"runtime.queue_wait_p50_us",
       DeltaQuantile(before, after, "spex_pool_queue_wait_us", 0.5), "us"},
      {"runtime.feed_to_result_p50_us",
       DeltaQuantile(before, after, "spex_pool_feed_to_result_us", 0.5), "us"},
      {"runtime.events_per_batch",
       delta("spex_pool_events_processed") /
           std::max(1.0, delta("spex_pool_batches_completed")),
       "events"},
      {"runtime.backpressure_waits", delta("spex_pool_backpressure_waits"),
       "count"},
      {"runtime.cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio"},
      {"runtime.cache_lookups", lookups, "count"},
      {"runtime.prepare_ms", Median(b->prepare_ms), "ms"},
      {"net.send_ms_per_doc", send_ms / docs, "ms"},
      {"net.await_ms_per_doc", await_ms / docs, "ms"},
      {"net.server_doc_latency_p50_us",
       DeltaQuantile(before, after, "spex_net_doc_latency_us", 0.5), "us"},
      {"net.frames_out_per_doc", delta("spex_net_frames_out_total") / docs,
       "frames"},
      {"net.bytes_out_per_doc", delta("spex_net_bytes_out_total") / docs,
       "bytes"},
      {"net.bytes_in_per_doc", delta("spex_net_bytes_in_total") / docs,
       "bytes"},
      {"trace.parse_self_ns_per_event",
       SelfNs(ledger_spans, "ledger.parse_engine", "xml.parse") /
           ledger_events,
       "ns/event"},
      {"trace.engine_self_ns_per_event",
       SelfNs(ledger_spans, "ledger.parse_engine", "spex.engine") /
           ledger_events,
       "ns/event"},
      {"trace.client_self_ms_per_doc", client_self_ns / 1e6 / docs, "ms"},
      {"trace.untraced_docs_per_s", e_plain.docs_per_s, "1/s"},
      {"trace.traced_docs_per_s", e_traced.docs_per_s, "1/s"},
      {"trace.overhead_docs_per_s_pct",
       (e_plain.docs_per_s - e_traced.docs_per_s) / e_plain.docs_per_s * 100,
       "%"},
      {"trace.overhead_latency_p50_pct",
       (e_traced.latency_p50_ms - e_plain.latency_p50_ms) /
           e_plain.latency_p50_ms * 100,
       "%"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

}  // namespace
}  // namespace spex

int main(int argc, char** argv) {
  using namespace spex;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wire_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n");
    return 2;
  }
  Bench b;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) b.workload = &w;
  }
  if (b.workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // The query side and the inputs, made outside any timed region.
  CompiledQueryCache local_cache(4);
  if (b.workload->query != nullptr) {
    b.prepare.text = b.workload->query;
    b.templates.single = local_cache.Get(b.prepare.text).value();
  } else {
    const std::vector<std::string> profiles =
        MakeProfiles(b.workload->profiles);
    for (const std::string& p : profiles) b.prepare.text += p + "\n";
    b.prepare.kind = net::PrepareFrame::kPopulation;
    b.templates.multi = local_cache.GetMulti(profiles).value();
  }
  b.inputs = MakeInputs(*b.workload, args.seed, b.templates);
  double kib = 0;
  double events = 0;
  double results = 0;
  for (const Input& in : b.inputs) {
    kib += static_cast<double>(in.xml.size()) / 1024.0 / kDistinctDocs;
    events += static_cast<double>(in.events.size()) / kDistinctDocs;
    results += static_cast<double>(in.expected_total) / kDistinctDocs;
  }
  std::fprintf(stderr,
               "%s seed %llu: %d documents of %.1f KiB, %.0f events, %.0f "
               "results (mean); %d clients, %d pool threads\n",
               b.workload->name, static_cast<unsigned long long>(args.seed),
               kDistinctDocs, kib, events, results, b.workload->clients,
               kPoolThreads);

  for (int k = 0; k < kSetups; ++k) {
    b.stack.reset();
    StatusOr<std::unique_ptr<Stack>> opened =
        OpenStack(b.prepare, b.workload->clients);
    if (!opened.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    b.stack = std::move(opened).value();
    b.setup_s.push_back(b.stack->setup_s);
    b.prepare_ms.push_back(b.stack->prepare_ms);
  }

  // Warm-up: every client sends every distinct document once.
  b.tally = RunLoop(b.stack.get(), b.prepare, b.inputs, kDistinctDocs, 0,
                    false)
                .tally;

  bool ledger_ok = true;
  const std::vector<Metric> metrics =
      args.trace ? MeasureLayers(&b, args.seconds, args.spans_path, &ledger_ok)
                 : MeasureEndToEnd(&b, args.seconds);

  const Tally& t = b.tally;
  const bool correct = t.mismatched == 0 && ledger_ok;
  if (!correct) {
    std::fprintf(stderr,
                 "FAILED: %lld documents differ from the DOM oracle%s\n",
                 static_cast<long long>(t.mismatched),
                 ledger_ok ? "" : "; ledger results differ too");
  }
  std::fprintf(stderr,
               "%s: attempted %lld, failed %lld (failed_share %.6f; "
               "transport errors %lld, mismatches %lld)\n",
               b.workload->name, static_cast<long long>(t.attempted),
               static_cast<long long>(t.failed),
               static_cast<double>(t.failed) /
                   static_cast<double>(t.attempted),
               static_cast<long long>(t.transport_errors),
               static_cast<long long>(t.mismatched));
  PrintResult(metrics, correct, t);
  return correct ? 0 : 1;
}
