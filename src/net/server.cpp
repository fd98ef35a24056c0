#include "net/server.hpp"

#include <cstring>

#include "util/check.hpp"
#include "util/io_error.hpp"

#ifdef __linux__

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

namespace pcq::net {

struct TcpServer::Conn {
  // The fields above `mu` are owned by the epoll thread (see the
  // pcq:epoll-thread markers below): only that thread reads or writes
  // them, so they need no lock — the concurrency lint enforces that the
  // owning functions never block.
  int fd = -1;
  bool admin = false;      ///< accepted on the admin listener (HTTP path)
  bool reading = true;     ///< EPOLLIN registered
  bool want_write = false; ///< EPOLLOUT registered
  std::vector<std::uint8_t> rbuf;
  std::size_t rpos = 0;  ///< parse offset into rbuf
  std::vector<std::uint8_t> wbuf;
  std::size_t wpos = 0;  ///< flush offset into wbuf
  /// Worker-thread side: completed responses land here; the epoll thread
  /// splices them into wbuf. `closed` stops late completions from growing
  /// a buffer nobody will ever flush. `half_closed` is the read-side EOF
  /// (client did shutdown(SHUT_WR) after pipelining): the connection stays
  /// open until its in-flight answers are written, then closes — so a
  /// one-shot client can send N frames, half-close, and read N responses.
  util::Mutex mu;
  std::vector<std::uint8_t> pending PCQ_GUARDED_BY(mu);
  std::uint64_t pending_frames PCQ_GUARDED_BY(mu) = 0;
  /// Admitted requests not yet queued back.
  std::uint64_t inflight PCQ_GUARDED_BY(mu) = 0;
  bool dirty_queued PCQ_GUARDED_BY(mu) = false;
  bool half_closed PCQ_GUARDED_BY(mu) = false;
  /// Single-writer (epoll thread) lifecycle flag. Written with mu held so
  /// worker threads deciding whether to append (queue_response) can't race
  /// the teardown; the owning epoll thread reads it lock-free — relaxed is
  /// enough, every cross-thread transition is ordered by mu.
  std::atomic<bool> closed{false};
};

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError("tcp", what + ": " + std::strerror(errno));
}

/// Opens a nonblocking listening socket bound to host:port; writes the
/// resolved port (for ephemeral port = 0) through `bound`. Throws IoError.
int open_listener(const std::string& host, std::uint16_t port, int backlog,
                  std::uint16_t* bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw IoError(host, "not an IPv4 address");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, backlog) < 0) {
    const int err = errno;
    ::close(fd);
    throw IoError(host + ":" + std::to_string(port),
                  std::string("bind/listen: ") + std::strerror(err));
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

TcpServer::TcpServer(svc::QueryService& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  listen_fd_ =
      open_listener(options_.host, options_.port, options_.backlog, &port_);
  if (options_.admin_enabled) {
    try {
      admin_listen_fd_ = open_listener(options_.host, options_.admin_port,
                                       options_.backlog, &admin_port_);
    } catch (...) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw;
    }
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (admin_listen_fd_ >= 0) {
      ::close(admin_listen_fd_);
      admin_listen_fd_ = -1;
    }
    throw_errno("epoll/eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  PCQ_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
  ev.data.fd = wake_fd_;
  PCQ_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);
  if (admin_listen_fd_ >= 0) {
    ev.data.fd = admin_listen_fd_;
    PCQ_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, admin_listen_fd_, &ev) ==
              0);
  }
  source_.emplace(obs::MetricsRegistry::global(),
                  [this](obs::RegistrySnapshot& out) { add_series(out); });
}

TcpServer::~TcpServer() {
  for (auto& [fd, conn] : conns_) {
    util::MutexLock lock(conn->mu);
    if (!conn->closed.load(std::memory_order_relaxed)) {
      conn->closed.store(true, std::memory_order_relaxed);
      ::close(conn->fd);
    }
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (admin_listen_fd_ >= 0) ::close(admin_listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void TcpServer::add_series(obs::RegistrySnapshot& out) const {
  const auto add = [&out](const char* name,
                          const std::atomic<std::uint64_t>& counter) {
    out.counters[name] += counter.load(std::memory_order_relaxed);
  };
  add("net.accepted", stats_.accepted);
  add("net.frames_in", stats_.frames_in);
  add("net.frames_out", stats_.frames_out);
  add("net.bytes_in", stats_.bytes_in);
  add("net.bytes_out", stats_.bytes_out);
  add("net.rejected", stats_.rejected);
  add("net.protocol_errors", stats_.protocol_errors);
  add("net.admin_requests", stats_.admin_requests);
  out.gauges["net.open_conns"] +=
      stats_.open_conns.load(std::memory_order_relaxed);
}

void TcpServer::request_stop() {
  // Async-signal-safe: one atomic store and one eventfd write.
  stop_requested_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

// pcq:epoll-thread — run() IS the epoll thread; everything it calls below
// carries the same marker and must never block on a condvar/sleep/join.
void TcpServer::run() {
  std::vector<epoll_event> events(128);
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("epoll", std::string("epoll_wait: ") +
                                 std::strerror(errno));
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[static_cast<std::size_t>(i)];
      if (ev.data.fd == wake_fd_) {
        std::uint64_t drainv = 0;
        while (::read(wake_fd_, &drainv, sizeof drainv) > 0) {}
        continue;
      }
      if (ev.data.fd == listen_fd_) {
        accept_ready(listen_fd_, /*admin=*/false);
        continue;
      }
      if (admin_listen_fd_ >= 0 && ev.data.fd == admin_listen_fd_) {
        accept_ready(admin_listen_fd_, /*admin=*/true);
        continue;
      }
      const auto it = conns_.find(ev.data.fd);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      const std::shared_ptr<Conn> conn = it->second;
      if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(conn);
        continue;
      }
      if ((ev.events & EPOLLIN) != 0) conn_readable(conn);
      if ((ev.events & EPOLLOUT) != 0 &&
          !conn->closed.load(std::memory_order_relaxed))
        conn_writable(conn);
    }
    sweep_dirty();
    if (stop_requested_.load(std::memory_order_acquire) && !draining_)
      begin_drain();
    if (draining_ && drain_complete()) break;
  }
  // Everything admitted was answered and flushed. Lingering close: FIN
  // first, then briefly read-and-discard until the peer closes — a plain
  // close() on a socket with unread inbound bytes sends RST, and an RST
  // can destroy flushed responses still in the peer's receive path. The
  // deadline bounds a peer that never closes; a well-behaved client that
  // reads its answers and sees EOF closes within microseconds on loopback.
  const auto linger_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  for (auto& [fd, conn] : conns_) {
    if (conn->closed.load(std::memory_order_relaxed)) continue;
    ::shutdown(conn->fd, SHUT_WR);
    std::uint8_t chunk[4096];
    for (;;) {
      const ssize_t got = ::read(conn->fd, chunk, sizeof chunk);
      if (got > 0) continue;  // discard
      if (got == 0) break;    // peer closed: receive queue is empty
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= linger_deadline) break;
        pollfd p{conn->fd, POLLIN, 0};
        const int wait_ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                linger_deadline - now)
                .count());
        if (::poll(&p, 1, std::max(wait_ms, 1)) <= 0) break;
        continue;
      }
      break;  // ECONNRESET and friends: the peer is gone anyway
    }
  }
  for (auto& [fd, conn] : conns_) {
    util::MutexLock lock(conn->mu);
    if (!conn->closed.load(std::memory_order_relaxed)) {
      conn->closed.store(true, std::memory_order_relaxed);
      ::close(conn->fd);
      stats_.open_conns.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  conns_.clear();
}

// pcq:epoll-thread
void TcpServer::accept_ready(int listen_fd, bool admin) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or a racing client that went away
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->admin = admin;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.open_conns.fetch_add(1, std::memory_order_relaxed);
  }
}

// pcq:epoll-thread
void TcpServer::conn_readable(const std::shared_ptr<Conn>& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  if (conn->admin) {
    admin_readable(conn);
    return;
  }
  std::uint8_t chunk[64 * 1024];
  bool eof = false;
  for (;;) {
    const ssize_t got = ::read(conn->fd, chunk, sizeof chunk);
    if (got > 0) {
      stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(got),
                                std::memory_order_relaxed);
      // During the drain inbound bytes are read and DISCARDED, not parsed:
      // leaving them unread would make the final close() an RST, and an
      // RST can destroy flushed responses the client has not read yet —
      // exactly what a graceful drain promises not to do.
      if (draining_) continue;
      conn->rbuf.insert(conn->rbuf.end(), chunk,
                        chunk + static_cast<std::size_t>(got));
      if (conn->rbuf.size() - conn->rpos > kMaxFrameBytes) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        close_conn(conn);
        return;
      }
      continue;
    }
    if (got == 0) {  // read-side EOF: parse what arrived, then half-close
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(conn);
    return;
  }
  if (draining_) {
    if (eof) {
      {
        util::MutexLock lock(conn->mu);
        conn->half_closed = true;
      }
      flush(conn);
    }
    return;
  }
  // Decode every complete frame buffered so far.
  for (;;) {
    WireRequest w;
    std::size_t consumed = 0;
    const DecodeResult r =
        decode_request(conn->rbuf.data() + conn->rpos,
                       conn->rbuf.size() - conn->rpos, &w, &consumed);
    if (r == DecodeResult::kNeedMore) break;
    if (r == DecodeResult::kError) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      close_conn(conn);
      return;
    }
    conn->rpos += consumed;
    handle_frame(conn, w);
    if (conn->closed.load(std::memory_order_relaxed) || draining_) break;
  }
  if (conn->closed.load(std::memory_order_relaxed)) return;
  conn->rbuf.erase(conn->rbuf.begin(),
                   conn->rbuf.begin() + static_cast<std::ptrdiff_t>(conn->rpos));
  conn->rpos = 0;
  if (eof) {
    {
      util::MutexLock lock(conn->mu);
      conn->half_closed = true;
    }
    // May close immediately (nothing in flight, nothing buffered) or
    // arm EPOLLOUT for whatever remains.
    flush(conn);
    return;
  }
  update_read_interest(conn);
}

// pcq:epoll-thread
void TcpServer::admin_readable(const std::shared_ptr<Conn>& conn) {
  // One HTTP request per connection, answered inline on the epoll thread
  // (building a scrape body is microseconds of string work; it shares the
  // thread the same way accept and flush do). The response is appended
  // straight to wbuf — the epoll thread owns wbuf, no lock needed — and
  // half_closed makes flush() tear the connection down once it drains.
  constexpr std::size_t kMaxAdminHeader = 16 * 1024;
  std::uint8_t chunk[4096];
  bool eof = false;
  for (;;) {
    const ssize_t got = ::read(conn->fd, chunk, sizeof chunk);
    if (got > 0) {
      stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(got),
                                std::memory_order_relaxed);
      if (draining_) continue;  // discard, same rationale as the frame path
      conn->rbuf.insert(conn->rbuf.end(), chunk,
                        chunk + static_cast<std::size_t>(got));
      if (conn->rbuf.size() > kMaxAdminHeader) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        close_conn(conn);
        return;
      }
      continue;
    }
    if (got == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(conn);
    return;
  }
  if (draining_) {
    if (eof) {
      {
        util::MutexLock lock(conn->mu);
        conn->half_closed = true;
      }
      flush(conn);
    }
    return;
  }
  const std::string_view buf(reinterpret_cast<const char*>(conn->rbuf.data()),
                             conn->rbuf.size());
  if (buf.find("\r\n\r\n") == std::string_view::npos) {
    if (eof) close_conn(conn);  // the peer gave up mid-request
    return;
  }
  const std::string_view line = buf.substr(0, buf.find("\r\n"));
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  std::string response;
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    response =
        "HTTP/1.0 400 Bad Request\r\nContent-Length: 0\r\n"
        "Connection: close\r\n\r\n";
  } else if (!admin_handler_) {
    response =
        "HTTP/1.0 503 Service Unavailable\r\nContent-Length: 0\r\n"
        "Connection: close\r\n\r\n";
  } else {
    response = admin_handler_(line.substr(0, sp1),
                              line.substr(sp1 + 1, sp2 - sp1 - 1));
  }
  stats_.admin_requests.fetch_add(1, std::memory_order_relaxed);
  conn->rbuf.clear();
  conn->rpos = 0;
  conn->wbuf.insert(conn->wbuf.end(), response.begin(), response.end());
  {
    util::MutexLock lock(conn->mu);
    conn->half_closed = true;  // respond-and-close
  }
  flush(conn);
}

// pcq:epoll-thread
void TcpServer::handle_frame(const std::shared_ptr<Conn>& conn,
                             const WireRequest& w) {
  stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
  if (w.kind == kShutdownKind) {
    WireResponse resp;
    resp.id = w.id;
    resp.status = static_cast<std::uint8_t>(svc::Status::kOk);
    queue_response(conn, std::move(resp), /*completes_inflight=*/false);
    // Same path as SIGINT: the drain starts at the end of this epoll
    // iteration, after the acknowledgement is queued.
    stop_requested_.store(true, std::memory_order_release);
    return;
  }
  if (!is_query_kind(w.kind)) {
    WireResponse resp;
    resp.id = w.id;
    resp.status = static_cast<std::uint8_t>(svc::Status::kInvalid);
    queue_response(conn, std::move(resp), /*completes_inflight=*/false);
    return;
  }
  const svc::Request req = to_service_request(w, svc::Clock::now());
  const std::uint64_t id = w.id;
  // Increment before submit: the callback (which decrements) can fire on a
  // worker thread before submit even returns.
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  {
    util::MutexLock lock(conn->mu);
    ++conn->inflight;
  }
  const bool admitted =
      service_.submit(req, [this, conn, id](svc::Response&& response) {
        queue_response(conn, from_service_response(id, std::move(response)),
                       /*completes_inflight=*/true);
        // Decrement only after the encoded bytes are queued, so a drain
        // that observes in_flight_ == 0 also observes every response byte.
        // The last completion during a stop must wake the epoll thread:
        // it may already be parked in epoll_wait having seen in_flight_
        // nonzero, and no further socket event is coming.
        if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            stop_requested_.load(std::memory_order_acquire)) {
          const std::uint64_t one = 1;
          [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
        }
      });
  if (!admitted) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    {
      util::MutexLock lock(conn->mu);
      --conn->inflight;
    }
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    // Explicit backpressure: a saturated shard answers a kRejected frame
    // immediately; nothing is buffered on the request side.
    WireResponse resp;
    resp.id = id;
    resp.status = static_cast<std::uint8_t>(svc::Status::kRejected);
    queue_response(conn, std::move(resp), /*completes_inflight=*/false);
  }
}

void TcpServer::queue_response(const std::shared_ptr<Conn>& conn,
                               WireResponse&& w, bool completes_inflight) {
  bool need_wake = false;
  {
    util::MutexLock lock(conn->mu);
    if (completes_inflight) --conn->inflight;
    if (conn->closed.load(std::memory_order_relaxed)) return;
    encode_response(w, conn->pending);
    ++conn->pending_frames;
    if (!conn->dirty_queued) {
      conn->dirty_queued = true;
      need_wake = true;
    }
  }
  if (need_wake) {
    {
      util::MutexLock lock(dirty_mu_);
      dirty_.push_back(conn);
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }
}

// pcq:epoll-thread
void TcpServer::sweep_dirty() {
  std::vector<std::weak_ptr<Conn>> batch;
  {
    util::MutexLock lock(dirty_mu_);
    batch.swap(dirty_);
  }
  for (auto& weak : batch) {
    const std::shared_ptr<Conn> conn = weak.lock();
    if (conn == nullptr || conn->closed.load(std::memory_order_relaxed))
      continue;
    flush(conn);
  }
}

// pcq:epoll-thread
void TcpServer::flush(const std::shared_ptr<Conn>& conn) {
  {
    util::MutexLock lock(conn->mu);
    conn->dirty_queued = false;
    if (!conn->pending.empty()) {
      conn->wbuf.insert(conn->wbuf.end(), conn->pending.begin(),
                        conn->pending.end());
      stats_.frames_out.fetch_add(conn->pending_frames,
                                  std::memory_order_relaxed);
      conn->pending.clear();
      conn->pending_frames = 0;
    }
  }
  while (conn->wpos < conn->wbuf.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-write is an EPIPE error to
    // handle here, not a process-wide SIGPIPE.
    const ssize_t sent =
        ::send(conn->fd, conn->wbuf.data() + conn->wpos,
               conn->wbuf.size() - conn->wpos, MSG_NOSIGNAL);
    if (sent > 0) {
      stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(sent),
                                 std::memory_order_relaxed);
      conn->wpos += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (sent < 0 && errno == EINTR) continue;
    close_conn(conn);  // EPIPE / ECONNRESET: the reader is gone
    return;
  }
  if (conn->wpos >= conn->wbuf.size()) {
    conn->wbuf.clear();
    conn->wpos = 0;
  } else if (conn->wpos > 0 && conn->wpos * 2 >= conn->wbuf.size()) {
    // Reclaim the flushed prefix once it dominates the buffer.
    conn->wbuf.erase(conn->wbuf.begin(),
                     conn->wbuf.begin() +
                         static_cast<std::ptrdiff_t>(conn->wpos));
    conn->wpos = 0;
  }
  conn->want_write = conn->wpos < conn->wbuf.size();
  // A half-closed connection whose last in-flight answer has been written
  // has nothing left to live for; everything it asked is on the wire.
  bool close_now = false;
  if (!conn->want_write) {
    util::MutexLock lock(conn->mu);
    close_now =
        conn->half_closed && conn->inflight == 0 && conn->pending.empty();
  }
  if (close_now) {
    close_conn(conn);
    return;
  }
  update_read_interest(conn);
}

// pcq:epoll-thread
void TcpServer::conn_writable(const std::shared_ptr<Conn>& conn) {
  flush(conn);
}

// pcq:epoll-thread
void TcpServer::update_read_interest(const std::shared_ptr<Conn>& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  // Flow control: a connection whose outbound bytes exceed the limit is
  // not read until its reader catches up. During drain reading stays on —
  // conn_readable discards instead of parsing — so the receive queue is
  // empty when the connection finally closes (FIN, not RST).
  std::size_t outbound = conn->wbuf.size() - conn->wpos;
  bool half_closed = false;
  {
    util::MutexLock lock(conn->mu);
    outbound += conn->pending.size();
    half_closed = conn->half_closed;
  }
  const bool reading =
      !half_closed && (draining_ || outbound <= options_.write_buffer_limit);
  conn->reading = reading;
  epoll_event ev{};
  ev.events = (reading ? EPOLLIN : 0u) | (conn->want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

// pcq:epoll-thread
void TcpServer::close_conn(const std::shared_ptr<Conn>& conn) {
  util::MutexLock lock(conn->mu);
  if (conn->closed.load(std::memory_order_relaxed)) return;
  conn->closed.store(true, std::memory_order_relaxed);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  stats_.open_conns.fetch_sub(1, std::memory_order_relaxed);
}

// pcq:epoll-thread
void TcpServer::begin_drain() {
  draining_ = true;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (admin_listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, admin_listen_fd_, nullptr);
    ::close(admin_listen_fd_);
    admin_listen_fd_ = -1;
  }
  stats_.drained_in_flight.store(in_flight_.load(std::memory_order_acquire),
                                 std::memory_order_relaxed);
  // Stop parsing everywhere: requests already admitted are answered and
  // flushed; bytes a client sends after the drain began are read and
  // discarded (it sees its in-flight answers, then EOF, and can retry
  // elsewhere).
  for (auto& [fd, conn] : conns_) update_read_interest(conn);
}

// pcq:epoll-thread
bool TcpServer::drain_complete() const {
  if (in_flight_.load(std::memory_order_acquire) != 0) return false;
  for (const auto& [fd, conn] : conns_) {
    if (conn->wpos < conn->wbuf.size()) return false;
    util::MutexLock lock(conn->mu);
    if (!conn->pending.empty()) return false;
  }
  return true;
}

}  // namespace pcq::net

#else  // !__linux__

namespace pcq::net {

struct TcpServer::Conn {};

TcpServer::TcpServer(svc::QueryService& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  throw IoError("tcp", "pcq::net requires Linux (epoll)");
}

TcpServer::~TcpServer() = default;
void TcpServer::add_series(obs::RegistrySnapshot&) const {}
void TcpServer::run() {}
void TcpServer::request_stop() {}
void TcpServer::accept_ready(int, bool) {}
void TcpServer::conn_readable(const std::shared_ptr<Conn>&) {}
void TcpServer::admin_readable(const std::shared_ptr<Conn>&) {}
void TcpServer::conn_writable(const std::shared_ptr<Conn>&) {}
void TcpServer::handle_frame(const std::shared_ptr<Conn>&, const WireRequest&) {}
void TcpServer::queue_response(const std::shared_ptr<Conn>&, WireResponse&&,
                               bool) {}
void TcpServer::sweep_dirty() {}
void TcpServer::flush(const std::shared_ptr<Conn>&) {}
void TcpServer::close_conn(const std::shared_ptr<Conn>&) {}
void TcpServer::update_read_interest(const std::shared_ptr<Conn>&) {}
void TcpServer::begin_drain() {}
bool TcpServer::drain_complete() const { return true; }

}  // namespace pcq::net

#endif
