#include "net/net_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "runtime/admin_server.h"

namespace spex {
namespace net {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

uint64_t DocKey(uint32_t handle, uint32_t doc_id) {
  return (static_cast<uint64_t>(handle) << 32) | doc_id;
}

// Best-effort write of one frame to a socket that is about to be closed
// (connection-shed path: the conn never enters the poll set, so a tiny
// blocking-ish send into the empty socket buffer is fine).
void SendDirect(int fd, const std::string& frame) {
  (void)send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
}

}  // namespace

NetServer::NetServer(EnginePool* pool, CompiledQueryCache* cache,
                     NetServerOptions options, SessionDirectory* directory)
    : pool_(pool),
      cache_(cache),
      options_(std::move(options)),
      directory_(directory) {
  if (options_.max_connections < 1) options_.max_connections = 1;
  if (options_.max_docs_in_flight < 1) options_.max_docs_in_flight = 1;
  if (options_.max_docs_per_connection < 1) options_.max_docs_per_connection = 1;
  if (options_.feed_batch_events < 1) options_.feed_batch_events = 1;
  // Pool sessions require unstamped labels (each session owns a private
  // symbol table on its worker); per-document parsers also never share a
  // metrics registry.
  options_.parser.symbols = nullptr;
  options_.parser.metrics = nullptr;

  obs::MetricRegistry& m = pool_->metrics();
  m.SetHelp("spex_net_connections", "Live TCP serving connections.");
  m.AddCallbackGauge("spex_net_connections", {},
                     [this] { return connections(); });
  connections_total_ = m.AddAtomicCounter("spex_net_connections_total");
  frames_in_ = m.AddAtomicCounter("spex_net_frames_in_total");
  frames_out_ = m.AddAtomicCounter("spex_net_frames_out_total");
  bytes_in_ = m.AddAtomicCounter("spex_net_bytes_in_total");
  bytes_out_ = m.AddAtomicCounter("spex_net_bytes_out_total");
  m.SetHelp("spex_net_frame_errors_total",
            "Connections poisoned by framing violations (oversized length "
            "prefix, unknown frame type, malformed payload).");
  frame_errors_ = m.AddAtomicCounter("spex_net_frame_errors_total");
  m.SetHelp("spex_net_sheds_total",
            "Work refused kUnavailable/kResourceExhausted by overload "
            "protection, by reason.");
  shed_connections_ =
      m.AddAtomicCounter("spex_net_sheds_total", {{"reason", "connections"}});
  shed_docs_ = m.AddAtomicCounter("spex_net_sheds_total", {{"reason", "docs"}});
  shed_draining_ =
      m.AddAtomicCounter("spex_net_sheds_total", {{"reason", "draining"}});
  timeouts_idle_ =
      m.AddAtomicCounter("spex_net_timeouts_total", {{"kind", "idle"}});
  timeouts_doc_ =
      m.AddAtomicCounter("spex_net_timeouts_total", {{"kind", "doc"}});
  drains_ = m.AddAtomicCounter("spex_net_drains_total");
  m.SetHelp("spex_net_docs_total",
            "Documents terminally resolved on the wire, by status code.");
  for (int c = 0; c < kStatusCodeCount; ++c) {
    docs_by_status_[c] = m.AddAtomicCounter(
        "spex_net_docs_total",
        {{"status", StatusCodeName(static_cast<StatusCode>(c))}});
  }
  m.SetHelp("spex_net_doc_latency_us",
            "First STREAM frame to terminal frame queued, microseconds.");
  doc_latency_us_ = m.AddAtomicHistogram("spex_net_doc_latency_us");
}

NetServer::~NetServer() { Stop(); }

bool NetServer::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    for (int& fd : wake_fds_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    return false;
  };
  if (running_.load(std::memory_order_acquire)) return true;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton(" + options_.bind_address + ")");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (listen(listen_fd_, options_.backlog) != 0) return fail("listen");
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (!SetNonBlocking(listen_fd_)) return fail("fcntl(listen)");
  if (pipe(wake_fds_) != 0) return fail("pipe");
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);

  stop_.store(false, std::memory_order_release);
  drain_.store(false, std::memory_order_release);
  drained_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  return true;
}

void NetServer::RequestDrain() {
  if (!running_.load(std::memory_order_acquire)) return;
  drain_.store(true, std::memory_order_release);
  if (wake_fds_[1] >= 0) {
    const char byte = 'd';
    (void)!write(wake_fds_[1], &byte, 1);
  }
}

void NetServer::Join() {
  if (thread_.joinable()) thread_.join();
}

void NetServer::Stop() {
  stop_.store(true, std::memory_order_release);
  if (wake_fds_[1] >= 0) {
    const char byte = 's';
    (void)!write(wake_fds_[1], &byte, 1);
  }
  Join();
  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void NetServer::Loop() {
  std::vector<pollfd> pfds;
  bool drain_begun = false;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) break;
    const int64_t now = NowMs();
    if (drain_.load(std::memory_order_acquire) && !drain_begun) {
      drain_begun = true;
      BeginDrain(now);
    }

    pfds.clear();
    // Slot 0: wake pipe.  Slot 1: listener (POLLIN only while accepting).
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    pfds.push_back(
        {listen_fd_, static_cast<short>(listen_fd_ >= 0 ? POLLIN : 0), 0});
    const size_t polled_conns = conns_.size();
    for (auto& conn : conns_) {
      short events = 0;
      // Backpressure: a connection whose responses are not being read stops
      // being read itself once its write buffer is over the cap.
      if (!conn->eof && !conn->closing &&
          conn->out_bytes <= options_.max_write_buffer_bytes) {
        events |= POLLIN;
      }
      if (conn->out_bytes > 0) events |= POLLOUT;
      pfds.push_back({conn->fd, events, 0});
    }

    // Short timeout: completions are polled (StreamSession::done()), not
    // signalled through a fd, so the loop ticks even when sockets are quiet.
    (void)poll(pfds.data(), pfds.size(), 15);
    if (stop_.load(std::memory_order_acquire)) break;

    if (pfds[0].revents & POLLIN) {
      char buf[64];
      while (read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    const int64_t post_poll_now = NowMs();
    if (listen_fd_ >= 0 && (pfds[1].revents & POLLIN)) AcceptNew(post_poll_now);

    // Only the connections that were in this poll set have revents;
    // AcceptNew may have appended fresh ones past `polled_conns`.
    for (size_t i = 0; i < polled_conns; ++i) {
      Conn* conn = conns_[i].get();
      const short re = pfds[i + 2].revents;
      if (conn->fd < 0) continue;
      if (re & (POLLERR | POLLNVAL)) {
        CloseConn(conn, Status::Cancelled("connection error"));
        continue;
      }
      if (re & POLLOUT) {
        if (!FlushWrites(conn, post_poll_now)) continue;
      }
      if (re & (POLLIN | POLLHUP)) HandleReadable(conn, post_poll_now);
    }

    // Housekeeping pass: harvest finished sessions, enforce deadlines, flush
    // what the handlers queued, retire connections that are done.
    const int64_t tick = NowMs();
    for (auto& conn_ptr : conns_) {
      Conn* conn = conn_ptr.get();
      if (conn->fd < 0) continue;
      PumpCompletions(conn, tick);
      if (conn->fd < 0) continue;
      EnforceDeadlines(conn, tick);
      if (conn->fd < 0) continue;
      if (conn->out_bytes > 0 && !FlushWrites(conn, tick)) continue;
      const bool drained_conn = conn->docs.empty() && conn->out_bytes == 0;
      if (conn->closing && conn->out_bytes == 0) {
        CloseConn(conn, Status::Cancelled("connection closed"));
      } else if (conn->eof && drained_conn) {
        CloseConn(conn, Status::Ok());
      } else if (drain_begun && drained_conn) {
        CloseConn(conn, Status::Ok());
      } else if (drain_begun && options_.drain_grace_ms > 0 &&
                 tick - drain_started_ms_ > options_.drain_grace_ms) {
        CloseConn(conn, Status::Cancelled("drain grace period expired"));
      }
    }
    for (size_t i = 0; i < conns_.size();) {
      if (conns_[i]->fd < 0) {
        conns_.erase(conns_.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
    live_connections_.store(static_cast<int64_t>(conns_.size()),
                            std::memory_order_relaxed);

    if (drain_begun && conns_.empty()) {
      drained_.store(true, std::memory_order_release);
      break;
    }
  }

  // Loop exit (drain complete or hard stop): abort whatever is left.
  for (auto& conn : conns_) {
    if (conn->fd >= 0) CloseConn(conn.get(), Status::Cancelled("server stop"));
  }
  conns_.clear();
  live_connections_.store(0, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void NetServer::AcceptNew(int64_t now_ms) {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN and transient accept errors alike: retry next tick
    }
    connections_total_->Increment();
    if (drain_.load(std::memory_order_acquire) ||
        conns_.size() >= options_.max_connections) {
      // Shed at the door: best-effort structured refusal, then close.  The
      // socket never enters the poll set, so admitted connections pay
      // nothing for the rejected one.
      const bool draining = drain_.load(std::memory_order_acquire);
      ErrorFrame err;
      err.code = StatusCode::kUnavailable;
      err.retry_after_ms = options_.retry_after_ms;
      err.message = draining ? "server draining" : "connection limit reached";
      SendDirect(fd, err.Encode());
      ::close(fd);
      (draining ? shed_draining_ : shed_connections_)->Increment();
      continue;
    }
    SetNonBlocking(fd);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->decoder = FrameDecoder(options_.max_frame_bytes);
    conn->last_activity_ms = now_ms;
    conns_.push_back(std::move(conn));
    live_connections_.store(static_cast<int64_t>(conns_.size()),
                            std::memory_order_relaxed);
  }
}

void NetServer::CloseConn(Conn* conn, const Status& doc_abort_status) {
  if (conn->fd < 0) return;
  for (auto& [key, doc] : conn->docs) {
    (void)key;
    if (doc.session != nullptr) {
      if (!doc.closed) {
        doc.session->Abort(doc_abort_status.ok()
                               ? Status::Cancelled("connection closed")
                               : doc_abort_status);
      }
      // The worker still seals the session (Abort enqueued a close task);
      // nobody harvests it — that is fine, the pool owns completion.
      --docs_in_flight_;
    }
  }
  conn->docs.clear();
  ::close(conn->fd);
  conn->fd = -1;
}

void NetServer::HandleReadable(Conn* conn, int64_t now_ms) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->last_activity_ms = now_ms;
      bytes_in_->Increment(n);
      const Status decode = conn->decoder.Append(
          std::string_view(buf, static_cast<size_t>(n)));
      Frame frame;
      while (conn->decoder.Next(&frame)) {
        frames_in_->Increment();
        HandleFrame(conn, frame, now_ms);
        if (conn->fd < 0 || conn->closing) return;
      }
      if (!decode.ok() || !conn->decoder.status().ok()) {
        // Framing violation: the byte stream cannot be resynchronized, so
        // the whole connection is poisoned — but only this connection.
        frame_errors_->Increment();
        FailConnection(conn, conn->decoder.status());
        return;
      }
      if (static_cast<size_t>(n) < sizeof(buf)) return;
      continue;
    }
    if (n == 0) {
      // Peer half-closed.  Documents it finished (END_DOC seen) still
      // complete and their results flush; documents cut mid-stream are
      // aborted — their certain partials flush too.
      conn->eof = true;
      for (auto& [key, doc] : conn->docs) {
        (void)key;
        if (!doc.closed && !doc.shed) {
          AbortDoc(&doc, Status::Cancelled("client closed mid-document"));
        }
      }
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(conn, Status::Cancelled("connection reset"));
    return;
  }
}

void NetServer::HandleFrame(Conn* conn, const Frame& frame, int64_t now_ms) {
  if (!conn->hello_done && frame.type != FrameType::kHello) {
    FailConnection(conn,
                   Status::FailedPrecondition("expected HELLO, got " +
                                              std::string(FrameTypeName(
                                                  frame.type))));
    return;
  }
  switch (frame.type) {
    case FrameType::kHello:
      HandleHello(conn, frame);
      return;
    case FrameType::kPrepare:
      HandlePrepare(conn, frame);
      return;
    case FrameType::kStream:
      HandleStream(conn, frame, now_ms);
      return;
    case FrameType::kEndDoc:
      HandleEndDoc(conn, frame);
      return;
    case FrameType::kPing:
      SendFrame(conn, EncodeFrame(FrameType::kPong, frame.payload));
      return;
    default:
      // Server-to-client frame types arriving at the server.
      FailConnection(conn, Status::InvalidArgument(
                               std::string("unexpected frame ") +
                               FrameTypeName(frame.type)));
      return;
  }
}

void NetServer::HandleHello(Conn* conn, const Frame& frame) {
  if (conn->hello_done) {
    FailConnection(conn, Status::FailedPrecondition("duplicate HELLO"));
    return;
  }
  HelloFrame hello;
  const Status parsed = hello.Parse(frame.payload);
  if (!parsed.ok()) {
    frame_errors_->Increment();
    FailConnection(conn, parsed);
    return;
  }
  const uint16_t lo = std::max(hello.min_version, kMinVersion);
  const uint16_t hi = std::min(hello.max_version, kMaxVersion);
  if (lo > hi) {
    FailConnection(
        conn, Status::FailedPrecondition(
                  "no common protocol version (client " +
                  std::to_string(hello.min_version) + ".." +
                  std::to_string(hello.max_version) + ", server " +
                  std::to_string(kMinVersion) + ".." +
                  std::to_string(kMaxVersion) + ")"));
    return;
  }
  conn->hello_done = true;
  WelcomeFrame welcome;
  welcome.version = hi;
  welcome.max_frame_bytes = static_cast<uint32_t>(options_.max_frame_bytes);
  welcome.banner = options_.banner;
  SendFrame(conn, welcome.Encode());
}

void NetServer::HandlePrepare(Conn* conn, const Frame& frame) {
  PrepareFrame prepare;
  const Status parsed = prepare.Parse(frame.payload);
  if (!parsed.ok()) {
    frame_errors_->Increment();
    FailConnection(conn, parsed);
    return;
  }
  // A population with no query line keeps this status.
  StatusOr<std::shared_ptr<const QueryTemplate>> got =
      Status::MalformedInput("empty subscription population");
  if (prepare.kind == PrepareFrame::kQuery) {
    got = cache_->Get(prepare.text);
  } else {
    std::vector<std::string> queries;
    size_t start = 0;
    while (start <= prepare.text.size()) {
      size_t end = prepare.text.find('\n', start);
      if (end == std::string::npos) end = prepare.text.size();
      if (end > start) queries.push_back(prepare.text.substr(start, end - start));
      start = end + 1;
    }
    if (!queries.empty()) got = cache_->GetMulti(queries);
  }
  if (!got.ok()) {
    // Compilation failure is a request failure, not a connection failure:
    // report and keep serving.
    ErrorFrame err;
    err.code = got.status().code();
    err.message = got.status().message();
    SendFrame(conn, err.Encode());
    return;
  }
  const uint32_t handle = conn->next_handle++;
  PreparedFrame ok;
  ok.handle = handle;
  ok.slots = static_cast<uint32_t>(got.value()->slot_count());
  conn->handles[handle] = std::move(got).value();
  SendFrame(conn, ok.Encode());
}

void NetServer::HandleStream(Conn* conn, const Frame& frame, int64_t now_ms) {
  StreamFrame stream;
  const Status parsed = stream.Parse(frame.payload);
  if (!parsed.ok()) {
    frame_errors_->Increment();
    FailConnection(conn, parsed);
    return;
  }
  const uint64_t key = DocKey(stream.handle, stream.doc_id);
  auto it = conn->docs.find(key);
  if (it == conn->docs.end()) {
    // First frame of a new document: admission control.  A refusal creates
    // a shed entry that swallows the rest of the document's frames (the
    // terminal ERROR is sent exactly once, here).
    if (conn->docs.size() >= 4 * (options_.max_docs_per_connection + 1)) {
      // Even shed entries cost memory; a client churning refused documents
      // without ever ending them is hostile.
      FailConnection(conn,
                     Status::ResourceExhausted("too many open documents"));
      return;
    }
    Doc doc;
    doc.handle = stream.handle;
    doc.doc_id = stream.doc_id;
    doc.first_stream_ms = now_ms;
    ErrorFrame refusal;
    refusal.doc_id = stream.doc_id;
    auto handle_it = conn->handles.find(stream.handle);
    size_t live_docs = 0;
    for (const auto& [k, d] : conn->docs) {
      (void)k;
      if (!d.shed) ++live_docs;
    }
    if (handle_it == conn->handles.end()) {
      refusal.code = StatusCode::kInvalidArgument;
      refusal.message = "unknown handle " + std::to_string(stream.handle);
    } else if (drain_.load(std::memory_order_acquire)) {
      refusal.code = StatusCode::kUnavailable;
      refusal.retry_after_ms = options_.retry_after_ms;
      refusal.message = "server draining";
      shed_draining_->Increment();
    } else if (docs_in_flight_ >= options_.max_docs_in_flight) {
      refusal.code = StatusCode::kUnavailable;
      refusal.retry_after_ms = options_.retry_after_ms;
      refusal.message = "document limit reached, retry later";
      shed_docs_->Increment();
    } else if (live_docs >= options_.max_docs_per_connection) {
      refusal.code = StatusCode::kResourceExhausted;
      refusal.message = "per-connection document limit reached";
      shed_docs_->Increment();
    } else {
      // Admitted.
      doc.session = pool_->OpenSession(handle_it->second);
      doc.sink = std::make_unique<RecordingEventSink>();
      doc.parser = std::make_unique<XmlParser>(doc.sink.get(), options_.parser);
      ++docs_in_flight_;
      if (directory_ != nullptr) {
        directory_->Register(doc.session, options_.session_limits);
      }
    }
    if (doc.session == nullptr) {
      doc.shed = true;
      CountDocTerminal(refusal.code);
      SendFrame(conn, refusal.Encode());
    }
    it = conn->docs.emplace(key, std::move(doc)).first;
  }
  Doc* doc = &it->second;
  if (doc->shed || doc->closed) return;  // terminal already decided; swallow
  if (!doc->parser->Feed(stream.chunk)) {
    AbortDoc(doc, doc->parser->status());
    return;
  }
  FeedParsedEvents(doc, /*force=*/false);
}

void NetServer::HandleEndDoc(Conn* conn, const Frame& frame) {
  EndDocFrame end;
  const Status parsed = end.Parse(frame.payload);
  if (!parsed.ok()) {
    frame_errors_->Increment();
    FailConnection(conn, parsed);
    return;
  }
  const uint64_t key = DocKey(end.handle, end.doc_id);
  auto it = conn->docs.find(key);
  if (it == conn->docs.end()) {
    // END_DOC without a prior STREAM: a zero-chunk document.  Run it
    // through the same admission by synthesizing an empty STREAM frame.
    StreamFrame empty;
    empty.handle = end.handle;
    empty.doc_id = end.doc_id;
    std::string payload_frame = empty.Encode();
    Frame synthesized;
    synthesized.type = FrameType::kStream;
    synthesized.payload = std::string_view(payload_frame)
                              .substr(kFrameHeaderBytes);
    HandleStream(conn, synthesized, NowMs());
    it = conn->docs.find(key);
    if (it == conn->docs.end()) return;  // connection failed during admission
  }
  Doc* doc = &it->second;
  if (doc->shed) {
    // END_DOC is the last frame of a shed document; the refusal was its
    // terminal frame, so the entry can go.
    conn->docs.erase(it);
    return;
  }
  if (doc->closed) return;
  if (!doc->parser->Finish()) {
    AbortDoc(doc, doc->parser->status());
    return;
  }
  FeedParsedEvents(doc, /*force=*/true);
  doc->session->Close();
  doc->closed = true;
}

void NetServer::FailConnection(Conn* conn, const Status& status) {
  if (conn->fd < 0 || conn->closing) return;
  ErrorFrame err;
  err.doc_id = 0;
  err.code = status.code();
  err.message = status.message();
  if (status.code() == StatusCode::kUnavailable) {
    err.retry_after_ms = options_.retry_after_ms;
  }
  SendFrame(conn, err.Encode());
  conn->closing = true;
}

void NetServer::SendFrame(Conn* conn, std::string frame) {
  if (conn->fd < 0) return;
  frames_out_->Increment();
  conn->out_bytes += frame.size();
  conn->out_frames.push_back(std::move(frame));
}

bool NetServer::FlushWrites(Conn* conn, int64_t now_ms) {
  while (conn->out_bytes > 0) {
    if (conn->write_pos >= conn->write_buf.size()) {
      if (conn->out_frames.empty()) break;
      conn->write_buf = std::move(conn->out_frames.front());
      conn->out_frames.pop_front();
      conn->write_pos = 0;
    }
    const ssize_t n =
        send(conn->fd, conn->write_buf.data() + conn->write_pos,
             conn->write_buf.size() - conn->write_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->write_pos += static_cast<size_t>(n);
      conn->out_bytes -= static_cast<size_t>(n);
      bytes_out_->Increment(n);
      conn->last_activity_ms = now_ms;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    CloseConn(conn, Status::Cancelled("connection reset during write"));
    return false;
  }
  return true;
}

void NetServer::PumpCompletions(Conn* conn, int64_t now_ms) {
  for (auto it = conn->docs.begin(); it != conn->docs.end();) {
    Doc& doc = it->second;
    if (!doc.closed || doc.session == nullptr || !doc.session->done()) {
      ++it;
      continue;
    }
    StreamSession& session = *doc.session;
    session.Wait();  // done() is true: returns immediately
    uint64_t certain = 0;
    uint64_t total = 0;
    for (int slot = 0; slot < session.query_template().slot_count(); ++slot) {
      const std::vector<std::string>& results =
          session.subscription_results(slot);
      const int64_t slot_certain = session.subscription_certain_count(slot);
      for (size_t i = 0; i < results.size(); ++i) {
        ResultFrame rf;
        rf.doc_id = doc.doc_id;
        rf.slot = static_cast<uint32_t>(slot);
        rf.certain = static_cast<int64_t>(i) < slot_certain ? 1 : 0;
        rf.fragment = results[i];
        SendFrame(conn, rf.Encode());
      }
      certain += static_cast<uint64_t>(slot_certain);
      total += results.size();
    }
    const Status& status = session.status();
    if (status.ok()) {
      DocDoneFrame done;
      done.doc_id = doc.doc_id;
      done.certain = certain;
      done.total = total;
      SendFrame(conn, done.Encode());
    } else {
      ErrorFrame err;
      err.doc_id = doc.doc_id;
      err.code = status.code();
      err.certain = certain;
      err.total = total;
      err.message = status.message();
      if (status.code() == StatusCode::kUnavailable) {
        err.retry_after_ms = options_.retry_after_ms;
      }
      SendFrame(conn, err.Encode());
    }
    CountDocTerminal(status.code());
    doc_latency_us_->Observe((now_ms - doc.first_stream_ms) * 1000);
    --docs_in_flight_;
    it = conn->docs.erase(it);
  }
}

void NetServer::EnforceDeadlines(Conn* conn, int64_t now_ms) {
  if (options_.doc_deadline_ms > 0) {
    for (auto& [key, doc] : conn->docs) {
      (void)key;
      if (doc.closed || doc.shed) continue;
      if (now_ms - doc.first_stream_ms > options_.doc_deadline_ms) {
        timeouts_doc_->Increment();
        AbortDoc(&doc, Status::DeadlineExceeded(
                           "document exceeded deadline of " +
                           std::to_string(options_.doc_deadline_ms) + "ms"));
      }
    }
  }
  if (options_.idle_timeout_ms > 0 &&
      now_ms - conn->last_activity_ms > options_.idle_timeout_ms) {
    // Slow-loris / stuck-writer defense: no progress in either direction.
    // Best-effort goodbye, one flush attempt, then the connection dies now —
    // a peer that is not reading cannot postpone its own teardown.
    timeouts_idle_->Increment();
    ErrorFrame err;
    err.code = StatusCode::kDeadlineExceeded;
    err.message = "idle timeout";
    SendFrame(conn, err.Encode());
    FlushWrites(conn, now_ms);
    if (conn->fd >= 0) {
      CloseConn(conn, Status::DeadlineExceeded("idle timeout"));
    }
  }
}

void NetServer::BeginDrain(int64_t now_ms) {
  drains_->Increment();
  drain_started_ms_ = now_ms;
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& conn : conns_) {
    if (conn->fd < 0) continue;
    SendFrame(conn.get(), EncodeFrame(FrameType::kDrain, ""));
    // Documents whose END_DOC already arrived finish normally and their
    // results flush; documents still mid-stream are cut — with structured
    // terminal frames carrying their certain partial counts.
    for (auto& [key, doc] : conn->docs) {
      (void)key;
      if (!doc.closed && !doc.shed) {
        AbortDoc(&doc, Status::Cancelled("server draining"));
      }
    }
  }
}

void NetServer::FeedParsedEvents(Doc* doc, bool force) {
  const std::vector<StreamEvent>& events = doc->sink->events();
  if (events.empty()) return;
  if (!force && events.size() < options_.feed_batch_events) return;
  doc->session->Feed(events);  // by-value overload copies into a shared batch
  doc->sink->Clear();
}

void NetServer::AbortDoc(Doc* doc, const Status& status) {
  if (doc->closed || doc->shed) return;
  // Events parsed before the failure still count: feed them so the sealed
  // partial reflects everything the server actually consumed (on a parser
  // failure the buffered tail is mid-token garbage, but every *emitted*
  // event is still well-formed prefix).
  FeedParsedEvents(doc, /*force=*/true);
  doc->session->Abort(status);
  doc->closed = true;
}

void NetServer::CountDocTerminal(StatusCode code) {
  const int index = static_cast<int>(code);
  if (index >= 0 && index < kStatusCodeCount) {
    docs_by_status_[index]->Increment();
  }
}

}  // namespace net
}  // namespace spex
