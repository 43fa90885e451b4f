#include "service/event_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#else
#include <poll.h>
#endif

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/obs.hpp"
#include "service/binwire.hpp"
#include "service/wire.hpp"
#include "workload/scenario_io.hpp"

namespace sparcle::service {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("EventServer: " + what + ": " +
                           std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

const char* category_name(binwire::ErrorCategory category) {
  switch (category) {
    case binwire::ErrorCategory::kBadMagic: return "bad_magic";
    case binwire::ErrorCategory::kBadVersion: return "bad_version";
    case binwire::ErrorCategory::kOversized: return "oversized";
    case binwire::ErrorCategory::kMalformed: return "malformed";
  }
  return "malformed";
}

}  // namespace

/// One open connection.  All state is owned by the loop thread; the only
/// cross-thread traffic is the rendered reply payload riding a Completion.
struct EventServer::Connection {
  enum class Codec : std::uint8_t { kUnknown, kJson, kBinary };
  /// One in-order reply slot; `ready` flips when the payload is known.
  struct Pending {
    std::uint64_t seq{0};
    bool ready{false};
    std::string payload;
  };

  int fd{-1};
  std::uint64_t id{0};
  Codec codec{Codec::kUnknown};
  std::string inbuf;
  std::string outbuf;
  std::size_t out_off{0};
  std::deque<Pending> replies;
  std::uint64_t next_seq{0};
  bool want_read{true};
  bool want_write{false};
  bool closing{false};  ///< stop reading; close once every reply is flushed
  bool dead{false};     ///< queued for close at the end of the iteration
  std::chrono::steady_clock::time_point last_activity;
};

/// Rendered result of one async request, posted from the completing
/// thread to the loop thread.
struct EventServer::Completion {
  std::uint64_t conn_id{0};
  std::uint64_t seq{0};
  std::string payload;
};

/// Readiness multiplexer: epoll on Linux, poll(2) elsewhere.  Level
/// triggered in both modes — handlers may leave data unread/unwritten and
/// the next wait() reports it again.
class EventServer::Poller {
 public:
  struct Event {
    std::uint64_t id{0};
    bool readable{false};
    bool writable{false};
    bool error{false};
  };

  Poller() {
#ifdef __linux__
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) throw_errno("epoll_create1");
#endif
  }

  ~Poller() {
#ifdef __linux__
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
#endif
  }

  void add(int fd, std::uint64_t id, bool want_read, bool want_write) {
#ifdef __linux__
    epoll_event ev{};
    ev.events = mask(want_read, want_write);
    ev.data.u64 = id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
#else
    entries_[fd] = Entry{id, want_read, want_write};
#endif
  }

  void update(int fd, std::uint64_t id, bool want_read, bool want_write) {
#ifdef __linux__
    epoll_event ev{};
    ev.events = mask(want_read, want_write);
    ev.data.u64 = id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
#else
    entries_[fd] = Entry{id, want_read, want_write};
#endif
  }

  void remove(int fd) {
#ifdef __linux__
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
#else
    entries_.erase(fd);
#endif
  }

  void wait(std::vector<Event>& out, int timeout_ms) {
    out.clear();
#ifdef __linux__
    epoll_event evs[128];
    const int n = ::epoll_wait(epoll_fd_, evs, 128, timeout_ms);
    for (int i = 0; i < n; ++i) {
      Event e;
      e.id = evs[i].data.u64;
      e.readable = (evs[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      e.writable = (evs[i].events & EPOLLOUT) != 0;
      e.error = (evs[i].events & EPOLLERR) != 0;
      out.push_back(e);
    }
#else
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> ids;
    fds.reserve(entries_.size());
    for (const auto& [fd, entry] : entries_) {
      pollfd p{};
      p.fd = fd;
      p.events = static_cast<short>((entry.want_read ? POLLIN : 0) |
                                    (entry.want_write ? POLLOUT : 0));
      fds.push_back(p);
      ids.push_back(entry.id);
    }
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n <= 0) return;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Event e;
      e.id = ids[i];
      e.readable = (fds[i].revents & (POLLIN | POLLHUP)) != 0;
      e.writable = (fds[i].revents & POLLOUT) != 0;
      e.error = (fds[i].revents & (POLLERR | POLLNVAL)) != 0;
      out.push_back(e);
    }
#endif
  }

 private:
#ifdef __linux__
  static std::uint32_t mask(bool want_read, bool want_write) {
    return (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  }
  int epoll_fd_{-1};
#else
  struct Entry {
    std::uint64_t id{0};
    bool want_read{true};
    bool want_write{false};
  };
  std::map<int, Entry> entries_;
#endif
};

namespace {
constexpr std::uint64_t kListenerId = 1;
constexpr std::uint64_t kWakeId = 2;
}  // namespace

EventServer::EventServer(PlacementService& service, EventServerOptions options)
    : service_(service), options_(std::move(options)) {
  obs::MetricsRegistry& reg = service_.registry();
  accepted_ = &reg.counter("service.net.accepted");
  connections_ = &reg.gauge("service.net.connections");
  frames_in_ = &reg.counter("service.net.frames.in");
  frames_out_ = &reg.counter("service.net.frames.out");
  bytes_in_ = &reg.counter("service.net.bytes.in");
  bytes_out_ = &reg.counter("service.net.bytes.out");
  short_reads_ = &reg.counter("service.net.short_reads");
  protocol_errors_ = &reg.counter("service.net.protocol_errors");
  wire_rejects_ = &reg.counter("service.net.wire_rejects");
  idle_closed_ = &reg.counter("service.net.idle_closed");
  backpressure_closed_ = &reg.counter("service.net.backpressure_closed");
  codec_json_ = &reg.counter("service.net.codec.json");
  codec_binary_ = &reg.counter("service.net.codec.binary");
}

EventServer::~EventServer() { stop(); }

void EventServer::start() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    throw std::runtime_error("EventServer: bad bind address '" +
                             options_.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    throw_errno("bind " + options_.bind_address + ":" +
                std::to_string(options_.port));
  }
  if (::listen(fd, 1024) < 0) {
    ::close(fd);
    throw_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    ::close(fd);
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  set_nonblocking(fd);
  listen_fd_ = fd;

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    ::close(fd);
    listen_fd_ = -1;
    throw_errno("pipe");
  }
  set_nonblocking(pipe_fds[0]);
  set_nonblocking(pipe_fds[1]);
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];

  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    stopping_ = false;
  }
  poller_ = std::make_unique<Poller>();
  poller_->add(listen_fd_, kListenerId, true, false);
  poller_->add(wake_read_fd_, kWakeId, true, false);
  loop_thread_ = std::thread([this] { loop(); });
}

void EventServer::stop() {
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    if (stopping_ && !loop_thread_.joinable()) return;
    stopping_ = true;
    wake();
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  std::vector<std::thread> drains;
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drains.swap(drain_threads_);
  }
  for (std::thread& t : drains)
    if (t.joinable()) t.join();
  {
    // Wait for every outstanding async callback: once inflight_ hits
    // zero no service thread can touch this object again, so the
    // destructor is safe.  The service must still be completing requests
    // (running, or stopped with the queue bounced) for this to return.
    std::unique_lock<std::mutex> lock(comp_mu_);
    comp_cv_.wait(lock, [this] { return inflight_ == 0; });
    completions_.clear();
  }
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  wake_read_fd_ = wake_write_fd_ = -1;
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  poller_.reset();
}

void EventServer::wake() {
  if (wake_write_fd_ < 0) return;
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void EventServer::post_completion(Completion done) {
  // Everything — enqueue, wake, the inflight_ decrement, and the notify —
  // happens under comp_mu_ so stop() cannot tear the object down while a
  // completing thread still holds a reference to it.
  std::lock_guard<std::mutex> lock(comp_mu_);
  completions_.push_back(std::move(done));
  wake();
  if (inflight_ > 0) --inflight_;
  comp_cv_.notify_all();
}

void EventServer::loop() {
  std::vector<Poller::Event> events;
  std::vector<std::uint64_t> dead;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(comp_mu_);
      if (stopping_) break;
    }
    const int timeout_ms = options_.idle_timeout.count() > 0 ? 100 : -1;
    poller_->wait(events, timeout_ms);
    for (const Poller::Event& ev : events) {
      if (ev.id == kListenerId) {
        accept_ready();
        continue;
      }
      if (ev.id == kWakeId) {
        char buf[256];
        while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      const auto it = conns_.find(ev.id);
      if (it == conns_.end()) continue;
      Connection& conn = *it->second;
      if (conn.dead) continue;
      if (ev.error) {
        conn.dead = true;
        continue;
      }
      if (ev.writable) on_writable(conn);
      if (ev.readable && !conn.dead && !conn.closing) on_readable(conn);
    }
    drain_completions();
    if (options_.idle_timeout.count() > 0) sweep_idle();
    dead.clear();
    for (const auto& [id, conn] : conns_)
      if (conn->dead) dead.push_back(id);
    for (std::uint64_t id : dead) close_connection(id);
  }
  // Loop exit: drop every connection (pending completions are discarded
  // by stop()).
  for (const auto& [id, conn] : conns_) {
    poller_->remove(conn->fd);
    ::close(conn->fd);
  }
  conns_.clear();
  connections_->set(0.0);
}

void EventServer::accept_ready() {
  for (;;) {
#ifdef __linux__
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
#else
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
#endif
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or a transient accept failure: retry on next event
    }
#ifndef __linux__
    set_nonblocking(fd);
#endif
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    accepted_->add();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity = std::chrono::steady_clock::now();
    poller_->add(fd, conn->id, true, false);
    conns_.emplace(conn->id, std::move(conn));
    connections_->set(static_cast<double>(conns_.size()));
  }
}

void EventServer::on_readable(Connection& conn) {
  char chunk[65536];
  const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
  if (n == 0) {
    conn.dead = true;  // peer closed
    return;
  }
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    conn.dead = true;
    return;
  }
  bytes_in_->add(static_cast<std::uint64_t>(n));
  conn.inbuf.append(chunk, static_cast<std::size_t>(n));
  conn.last_activity = std::chrono::steady_clock::now();
  process_input(conn);
  if (!conn.dead && !conn.closing && !conn.inbuf.empty()) short_reads_->add();
  if (!conn.dead) update_interest(conn);
}

void EventServer::on_writable(Connection& conn) {
  try_flush(conn);
  if (!conn.dead) update_interest(conn);
}

void EventServer::process_input(Connection& conn) {
  if (conn.codec == Connection::Codec::kUnknown && !conn.inbuf.empty()) {
    const bool binary =
        static_cast<std::uint8_t>(conn.inbuf.front()) == binwire::kMagic;
    conn.codec =
        binary ? Connection::Codec::kBinary : Connection::Codec::kJson;
    (binary ? codec_binary_ : codec_json_)->add();
  }
  if (conn.codec == Connection::Codec::kBinary)
    process_binary(conn);
  else
    process_json(conn);
}

void EventServer::process_json(Connection& conn) {
  std::size_t start = 0;
  for (;;) {
    if (conn.dead || conn.closing) break;
    const std::size_t nl = conn.inbuf.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = conn.inbuf.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    frames_in_->add();
    std::map<std::string, std::string> request;
    try {
      request = wire::parse_line(line);
    } catch (const std::exception& e) {
      // A malformed line is answered and the connection stays usable:
      // NDJSON framing survives a bad line (the newline resynchronizes).
      protocol_errors_->add();
      const std::uint64_t seq = conn.next_seq++;
      reserve_reply(conn, seq);
      complete_reply(conn, seq,
                     render_reply(conn, false, wire::error_fields(e.what())));
      continue;
    }
    dispatch(conn, std::move(request));
  }
  if (start > 0) conn.inbuf.erase(0, start);
  if (!conn.dead && !conn.closing &&
      conn.inbuf.size() > options_.max_frame_bytes) {
    wire_reject(conn, "oversized",
                "request line exceeds " +
                    std::to_string(options_.max_frame_bytes) + " bytes");
    conn.inbuf.clear();
  }
}

void EventServer::process_binary(Connection& conn) {
  std::size_t start = 0;
  for (;;) {
    if (conn.dead || conn.closing) break;
    const std::string_view rest(conn.inbuf.data() + start,
                                conn.inbuf.size() - start);
    if (rest.empty()) break;
    std::size_t frame_bytes = 0;
    binwire::Frame frame;
    try {
      frame_bytes = binwire::frame_length(rest, options_.max_frame_bytes);
      if (frame_bytes == 0) break;  // partial frame: wait for more bytes
      frame = binwire::decode(rest.substr(0, frame_bytes),
                              options_.max_frame_bytes);
    } catch (const binwire::Error& e) {
      // Any framing failure poisons the byte stream (there is no reliable
      // resynchronization point), so answer with an error frame and close.
      wire_reject(conn, category_name(e.category()), e.what());
      conn.inbuf.clear();
      return;
    }
    start += frame_bytes;
    frames_in_->add();
    if (!binwire::is_request(frame.type)) {
      wire_reject(conn, "malformed",
                  "frame type is not a request verb");
      conn.inbuf.clear();
      return;
    }
    frame.fields["verb"] = binwire::verb_name(frame.type);
    dispatch(conn, std::move(frame.fields));
  }
  if (start > 0) conn.inbuf.erase(0, start);
}

void EventServer::dispatch(Connection& conn,
                           std::map<std::string, std::string> request) {
  const std::uint64_t seq = conn.next_seq++;
  reserve_reply(conn, seq);
  const std::uint64_t conn_id = conn.id;
  const bool binary = conn.codec == Connection::Codec::kBinary;

  const auto fail = [&](const std::string& reason) {
    protocol_errors_->add();
    complete_reply(conn, seq,
                   render_reply(conn, false, wire::error_fields(reason)));
  };

  const auto verb_it = request.find("verb");
  if (verb_it == request.end()) {
    fail("missing 'verb'");
    return;
  }
  const std::string verb = verb_it->second;

  try {
    if (verb == "submit") {
      const auto app_it = request.find("app");
      if (app_it == request.end()) {
        fail("submit: missing 'app' block");
        return;
      }
      // Parsing happens on the loop thread against the immutable network
      // copy; only the scheduling thread ever touches the Scheduler.
      std::vector<Application> apps = workload::parse_apps_text(
          app_it->second, service_.network(), "<submit>");
      if (apps.size() != 1) {
        fail("submit: expected exactly one app block, got " +
             std::to_string(apps.size()));
        return;
      }
      {
        std::lock_guard<std::mutex> lock(comp_mu_);
        ++inflight_;
      }
      service_.submit_async(
          std::move(apps.front()), [this, conn_id, seq,
                                    binary](ServiceResult result) {
            const auto fields = wire::result_fields(result);
            std::string payload =
                binary ? binwire::encode(binwire::FrameType::kReply, fields)
                       : wire::to_line(fields) + "\n";
            post_completion(Completion{conn_id, seq, std::move(payload)});
          });
      return;
    }
    if (verb == "remove") {
      const auto name_it = request.find("name");
      if (name_it == request.end()) {
        fail("remove: missing 'name'");
        return;
      }
      {
        std::lock_guard<std::mutex> lock(comp_mu_);
        ++inflight_;
      }
      service_.remove_async(
          name_it->second, [this, conn_id, seq, binary](ServiceResult result) {
            const auto fields = wire::result_fields(result);
            std::string payload =
                binary ? binwire::encode(binwire::FrameType::kReply, fields)
                       : wire::to_line(fields) + "\n";
            post_completion(Completion{conn_id, seq, std::move(payload)});
          });
      return;
    }
    if (verb == "query") {
      const std::shared_ptr<const ServiceSnapshot> snap = service_.snapshot();
      const auto name_it = request.find("name");
      const auto fields = name_it != request.end()
                              ? wire::app_fields(*snap, name_it->second)
                              : wire::snapshot_fields(*snap);
      complete_reply(conn, seq, render_reply(conn, false, fields));
      return;
    }
    if (verb == "drain") {
      // drain() blocks until the queue empties — the one verb that cannot
      // answer inline.  A short-lived helper thread carries the wait and
      // posts the settled snapshot; stop() joins it.
      {
        std::lock_guard<std::mutex> lock(comp_mu_);
        ++inflight_;
      }
      std::lock_guard<std::mutex> lock(drain_mu_);
      drain_threads_.emplace_back([this, conn_id, seq, binary] {
        service_.drain();
        const auto fields = wire::snapshot_fields(*service_.snapshot());
        std::string payload =
            binary ? binwire::encode(binwire::FrameType::kReply, fields)
                   : wire::to_line(fields) + "\n";
        post_completion(Completion{conn_id, seq, std::move(payload)});
      });
      return;
    }
    if (verb == "stats") {
      complete_reply(conn, seq,
                     render_reply(conn, false, service_.health_fields()));
      return;
    }
    if (verb == "metrics") {
      complete_reply(
          conn, seq,
          render_reply(conn, false,
                       wire::metrics_fields(service_.prometheus_text())));
      return;
    }
  } catch (const std::exception& e) {
    fail(e.what());
    return;
  }
  fail("unknown verb '" + verb + "'");
}

void EventServer::reserve_reply(Connection& conn, std::uint64_t seq) {
  Connection::Pending pending;
  pending.seq = seq;
  conn.replies.push_back(std::move(pending));
}

void EventServer::complete_reply(Connection& conn, std::uint64_t seq,
                                 std::string payload) {
  for (Connection::Pending& pending : conn.replies) {
    if (pending.seq != seq) continue;
    pending.ready = true;
    pending.payload = std::move(payload);
    break;
  }
  conn.last_activity = std::chrono::steady_clock::now();
  flush_ready(conn);
  if (!conn.dead) try_flush(conn);
  if (!conn.dead) update_interest(conn);
}

std::string EventServer::render_reply(
    const Connection& conn, bool error,
    const std::map<std::string, std::string>& fields) {
  if (conn.codec == Connection::Codec::kBinary)
    return binwire::encode(
        error ? binwire::FrameType::kError : binwire::FrameType::kReply,
        fields);
  return wire::to_line(fields) + "\n";
}

void EventServer::wire_reject(Connection& conn, const std::string& category,
                              const std::string& reason) {
  wire_rejects_->add();
  if (obs::DecisionLog* log = obs::decision_log()) {
    log->record(obs::DecisionKind::kWireReject,
                "conn:" + std::to_string(conn.id), "-",
                category + " " + reason, 0.0, 0.0, 0);
  }
  std::map<std::string, std::string> fields = wire::error_fields(reason);
  fields["category"] = category;
  const std::uint64_t seq = conn.next_seq++;
  reserve_reply(conn, seq);
  conn.closing = true;  // stop reading; close once all replies are flushed
  complete_reply(conn, seq, render_reply(conn, true, fields));
}

void EventServer::flush_ready(Connection& conn) {
  while (!conn.replies.empty() && conn.replies.front().ready) {
    conn.outbuf += conn.replies.front().payload;
    conn.replies.pop_front();
    frames_out_->add();
  }
  if (conn.outbuf.size() - conn.out_off > options_.max_write_buffer_bytes) {
    backpressure_closed_->add();
    conn.dead = true;
  }
}

void EventServer::try_flush(Connection& conn) {
  while (conn.out_off < conn.outbuf.size()) {
    const ssize_t n = ::send(conn.fd, conn.outbuf.data() + conn.out_off,
                             conn.outbuf.size() - conn.out_off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      conn.dead = true;
      return;
    }
    conn.out_off += static_cast<std::size_t>(n);
    bytes_out_->add(static_cast<std::uint64_t>(n));
  }
  conn.outbuf.clear();
  conn.out_off = 0;
  if (conn.closing && conn.replies.empty()) conn.dead = true;
}

void EventServer::update_interest(Connection& conn) {
  const bool want_read = !conn.closing && !conn.dead;
  const bool want_write = conn.out_off < conn.outbuf.size();
  if (want_read == conn.want_read && want_write == conn.want_write) return;
  conn.want_read = want_read;
  conn.want_write = want_write;
  poller_->update(conn.fd, conn.id, want_read, want_write);
}

void EventServer::close_connection(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  poller_->remove(it->second->fd);
  ::close(it->second->fd);
  conns_.erase(it);
  connections_->set(static_cast<double>(conns_.size()));
}

void EventServer::drain_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    const auto it = conns_.find(done.conn_id);
    if (it == conns_.end() || it->second->dead) continue;
    complete_reply(*it->second, done.seq, std::move(done.payload));
  }
}

void EventServer::sweep_idle() {
  const auto now = std::chrono::steady_clock::now();
  for (const auto& [id, conn] : conns_) {
    if (conn->dead || conn->closing || !conn->replies.empty()) continue;
    if (now - conn->last_activity >= options_.idle_timeout) {
      idle_closed_->add();
      conn->dead = true;
    }
  }
}

}  // namespace sparcle::service
