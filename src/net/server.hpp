// pcq::net — epoll TCP serving front-end for the pcq::svc query service.
//
// One epoll thread owns every socket; it never touches the graph. Parsed
// request frames fan in to the existing per-shard BoundedMpmcQueue via
// QueryService::submit, and completions travel back on the service's
// worker threads as encoded response bytes appended to the connection's
// outbound buffer (mutex-guarded, wake via eventfd) — so the only new
// threading the network layer introduces is the epoll loop itself; the
// shared-nothing shard model is untouched.
//
//   accept ──► Conn{read buffer} ──decode──► svc::submit ──► shard queues
//                                                │ callback (worker thread)
//   epoll ◄── eventfd wake ◄── Conn{outbound} ◄─┘ encoded response
//
// Backpressure is explicit end to end: a saturated shard queue makes
// submit() return false and the server answers a kRejected frame
// immediately instead of buffering the request anywhere; a connection
// whose outbound buffer exceeds Options::write_buffer_limit (a slow
// reader) stops being read until the buffer drains below the limit, so
// neither direction grows unboundedly.
//
// Graceful drain (SIGINT/SIGTERM via request_stop(), or a shutdown control
// frame): stop accepting, stop reading, answer everything in flight, flush
// every write buffer, then run() returns. request_stop() is
// async-signal-safe (one eventfd write).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "svc/service.hpp"
#include "util/thread_annotations.hpp"

namespace pcq::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read the bound one via port()
  int backlog = 128;
  /// Per-connection outbound cap: above it the connection is not read
  /// (flow control), so a slow reader throttles itself instead of growing
  /// the server's memory.
  std::size_t write_buffer_limit = 8u << 20;
  /// Opens a SECOND listener on the same epoll thread whose connections
  /// speak the minimal HTTP subset of net/admin.hpp (scrapes, slow-query
  /// log, trace export) instead of the binary frame protocol.
  bool admin_enabled = false;
  std::uint16_t admin_port = 0;  ///< 0 = ephemeral; read via admin_port()
};

/// Counters the epoll thread maintains; read them after run() returns (or
/// racily for monitoring — they are atomics). A live TcpServer also renders
/// them in the global registry as the net.* series: every field but
/// drained_in_flight as a counter of the same name, open_conns as a gauge.
struct ServerStats {
  std::atomic<std::uint64_t> accepted{0};        ///< connections accepted
  std::atomic<std::uint64_t> frames_in{0};       ///< request frames decoded
  std::atomic<std::uint64_t> frames_out{0};      ///< response frames flushed
  std::atomic<std::uint64_t> bytes_in{0};        ///< payload bytes read
  std::atomic<std::uint64_t> bytes_out{0};       ///< payload bytes written
  std::atomic<std::uint64_t> rejected{0};        ///< kRejected answered
  std::atomic<std::uint64_t> protocol_errors{0}; ///< connections closed on bad frames
  std::atomic<std::uint64_t> drained_in_flight{0};///< answered during drain
  std::atomic<std::uint64_t> admin_requests{0};  ///< admin HTTP requests answered
  std::atomic<std::int64_t> open_conns{0};       ///< currently open connections
};

class TcpServer {
 public:
  /// Binds and listens immediately (so port() is valid before run());
  /// throws pcq::IoError when the socket/bind/listen setup fails.
  /// `service` must outlive the server.
  TcpServer(svc::QueryService& service, ServerOptions options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (resolves an ephemeral Options::port = 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// The bound admin port; 0 when Options::admin_enabled is false.
  [[nodiscard]] std::uint16_t admin_port() const { return admin_port_; }

  /// Installs the admin request handler (net/admin.hpp's
  /// handle_admin_request bound to an AdminContext). Must be set before
  /// run(); without one, admin connections answer 503.
  void set_admin_handler(
      std::function<std::string(std::string_view method,
                                std::string_view target)>
          handler) {
    admin_handler_ = std::move(handler);
  }

  /// Runs the epoll loop on the calling thread. Returns after a graceful
  /// drain completes: every admitted request answered, every response
  /// frame flushed (or its connection gone), all sockets closed.
  void run();

  /// Requests a graceful drain. Async-signal-safe (a single eventfd
  /// write), callable from any thread or a signal handler; run() finishes
  /// the drain and returns.
  void request_stop();

  [[nodiscard]] const ServerStats& stats() const { return stats_; }

 private:
  struct Conn;

  void accept_ready(int listen_fd, bool admin);
  void conn_readable(const std::shared_ptr<Conn>& conn);
  /// HTTP parse/respond path for admin connections: one request, one
  /// response, half-close (flush()'s existing teardown finishes the job).
  void admin_readable(const std::shared_ptr<Conn>& conn);
  void conn_writable(const std::shared_ptr<Conn>& conn);
  void handle_frame(const std::shared_ptr<Conn>& conn, const WireRequest& w);
  /// Appends one encoded response to the connection's outbound bytes and
  /// wakes the epoll thread. `completes_inflight` is true on the service
  /// callback path (the per-connection in-flight count drops with the same
  /// lock held, so half-close teardown can't miss the final answer).
  void queue_response(const std::shared_ptr<Conn>& conn, WireResponse&& w,
                      bool completes_inflight);
  void sweep_dirty();
  void flush(const std::shared_ptr<Conn>& conn);
  void close_conn(const std::shared_ptr<Conn>& conn);
  void update_read_interest(const std::shared_ptr<Conn>& conn);
  void begin_drain();
  [[nodiscard]] bool drain_complete() const;
  /// Adds stats_ as the net.* series (see ServerStats); source_'s fill.
  void add_series(obs::RegistrySnapshot& out) const;

  svc::QueryService& service_;
  ServerOptions options_;
  ServerStats stats_;
  int listen_fd_ = -1;
  int admin_listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: completion wakeups + stop requests
  std::uint16_t port_ = 0;
  std::uint16_t admin_port_ = 0;
  std::function<std::string(std::string_view, std::string_view)>
      admin_handler_;
  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;
  /// Requests admitted to the service whose responses have not yet been
  /// handed back to the epoll thread; drain waits for it to hit zero.
  std::atomic<std::uint64_t> in_flight_{0};
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  /// Connections with freshly completed responses, filled by service
  /// worker threads, swapped out and flushed by the epoll thread.
  util::Mutex dirty_mu_;
  std::vector<std::weak_ptr<Conn>> dirty_ PCQ_GUARDED_BY(dirty_mu_);
  /// stats_ in the global registry; registered last in the constructor
  /// and declared after stats_, so it leaves the registry first.
  std::optional<obs::MetricsRegistry::Source> source_;
};

}  // namespace pcq::net
