// The two serving workloads: serve_read (a static packed CSR plus a TCSR
// history) and ingest_mixed (a HybridGraph taking writes beside reads).
//
// Both are closed loops: one client thread, one connection and a fixed
// number of requests outstanding, each sent as soon as an answer frees its
// slot — the shape of callers that wait for their reply, as
// `pcq_serve --connect` does. The service runs with the pcq_serve
// defaults: one shard, max_batch 256, a 200 us window, one kernel thread.
//
// A traced run (--trace 1) repeats the end-to-end phase with spans on,
// then replays the same seeded requests through each lower layer's public
// entry point: in-process QueryService::submit at the same outstanding
// count, direct kernel calls grouped at the service's mean batch size,
// and bits::unpack_words over the rows those requests decode.
#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "csr/query.hpp"
#include "dyn/hybrid.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "shared.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace pcqbench {
namespace {

namespace net = pcq::net;
namespace svc = pcq::svc;
using svc::QueryKind;
using svc::Status;

/// Requests in flight. Every batch the service forms holds all of them at
/// this count, so the batcher stays in one regime from run to run.
constexpr std::size_t kOutstanding = 8;

// --- serve_read shape ------------------------------------------------------
constexpr VertexId kReadNodes = 1u << 18;
constexpr std::size_t kReadEdges = std::size_t{1} << 21;
constexpr std::size_t kReadEvents = std::size_t{1} << 20;
constexpr TimeFrame kReadFrames = 32;
constexpr std::size_t kReadPool = std::size_t{1} << 19;  ///< requests, cycled
constexpr int kReadSetups = 9;

// --- ingest_mixed shape ----------------------------------------------------
constexpr VertexId kIngestNodes = 1u << 16;
constexpr std::size_t kIngestEdges = std::size_t{1} << 18;
/// Requests per second of --seconds. Ingest is fixed work, so every run
/// applies the same mutation stream and completes the same compactions.
constexpr double kIngestRequestsPerSecond = 36'000;
constexpr int kIngestSetups = 21;

constexpr std::size_t kAnalyticsSources = 4;
/// Leading set-up repetitions left out of the set-up and build medians.
constexpr std::size_t kWarmupSetups = 2;

/// A seeded request in compact form (pools hold hundreds of thousands).
struct Op {
  QueryKind kind = QueryKind::kDegree;
  VertexId u = 0;
  VertexId v = 0;
  TimeFrame t = 0;
};

bool is_add(const Op& op) { return op.kind == QueryKind::kAddEdges; }
bool is_write(const Op& op) { return svc::is_mutation_kind(op.kind); }

/// One answer as the client sees it, from either transport.
struct Reply {
  std::uint64_t id = 0;
  Status status = Status::kOk;
  bool exists = false;
  std::uint32_t degree = 0;
  std::vector<VertexId> neighbors;
  Clock::time_point at;
};

class Transport {
 public:
  virtual ~Transport() = default;
  virtual void send(std::uint64_t id, const Op& op) = 0;
  /// Blocks until one answer arrives.
  virtual Reply receive() = 0;
};

/// The wire path: net::Client over one TCP connection.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(net::Client& client) : client_(client) {}

  void send(std::uint64_t id, const Op& op) override {
    net::WireRequest w;
    w.id = id;
    w.kind = static_cast<std::uint8_t>(op.kind);
    w.u = op.u;
    w.v = op.v;
    w.t = op.t;
    client_.send_request(w);
  }

  Reply receive() override {
    net::WireResponse w;
    if (!client_.read_response(&w))
      throw std::runtime_error("server closed the connection");
    Reply r;
    r.at = Clock::now();
    r.id = w.id;
    r.status = static_cast<Status>(w.status);
    r.exists = w.exists != 0;
    r.degree = w.degree;
    r.neighbors = std::move(w.neighbors);
    return r;
  }

 private:
  net::Client& client_;
};

/// The in-process path: QueryService::submit with a completion callback.
/// The service must be stopped before this transport is destroyed.
class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(svc::QueryService& service) : service_(service) {}

  void send(std::uint64_t id, const Op& op) override {
    svc::Request request;
    request.kind = op.kind;
    request.u = op.u;
    request.v = op.v;
    request.t = op.t;
    request.trace_id = id;
    const bool admitted =
        service_.submit(request, [this, id](svc::Response&& response) {
          Reply r;
          r.at = Clock::now();
          r.id = id;
          r.status = response.status;
          r.exists = response.exists;
          r.degree = response.degree;
          r.neighbors = std::move(response.neighbors);
          push(std::move(r));
        });
    if (!admitted) {
      Reply r;
      r.at = Clock::now();
      r.id = id;
      r.status = Status::kRejected;
      push(std::move(r));
    }
  }

  Reply receive() override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !done_.empty(); });
    Reply r = std::move(done_.front());
    done_.pop_front();
    return r;
  }

 private:
  void push(Reply&& r) {
    std::lock_guard<std::mutex> lock(mu_);
    done_.push_back(std::move(r));
    cv_.notify_one();
  }

  svc::QueryService& service_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Reply> done_;
};

// --- the closed loop -------------------------------------------------------

struct LoopPlan {
  std::uint64_t total_ops = 0;   ///< > 0: fixed work, exactly this many
  std::uint64_t warmup_ops = 0;  ///< fixed work: requests before the window
  double warmup_s = 0;           ///< timed: warm-up length
  double window_s = 0;           ///< timed: window length
};

struct LoopResult {
  std::vector<float> latency_us;  ///< requests sent and answered in the window
  std::vector<float> latency_at_s;  ///< when each sample completed
  std::vector<float> completion_s;  ///< every completion in the window
  double window_s = 0;
  std::uint64_t window_completions = 0;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::uint64_t first_id = 0;  ///< first request sent inside the window
  std::uint64_t end_id = 0;    ///< one past the last request sent

  [[nodiscard]] double qps() const {
    return window_s > 0 ? static_cast<double>(window_completions) / window_s
                        : 0;
  }
  [[nodiscard]] double mean_us() const {
    double sum = 0;
    for (const float v : latency_us) sum += v;
    return latency_us.empty() ? 0 : sum / static_cast<double>(latency_us.size());
  }
};

/// Window boundary callbacks; the per-workload hooks add `sent` and
/// `answered` (returns false for a failed request).
struct WindowHooks {
  std::function<void()> started;
  std::function<void()> ended;
};

template <typename Hooks>
LoopResult closed_loop(Transport& transport, const std::vector<Op>& ops,
                       const LoopPlan& plan, Hooks& hooks, SpanLog* spans,
                       const char* span_name) {
  struct Slot {
    std::uint64_t id = 0;
    Clock::time_point sent;
    bool used = false;
  };
  std::array<Slot, kOutstanding> slots{};
  LoopResult res;
  const bool fixed = plan.total_ops > 0;
  // Reserved, not grown: doubling would make the benchmark's own peak RSS
  // jump with the throughput.
  const std::size_t expect = fixed ? plan.total_ops : std::size_t{4} << 20;
  res.latency_us.reserve(expect);
  res.latency_at_s.reserve(expect);
  res.completion_s.reserve(expect);
  std::uint64_t next_id = 0;
  std::size_t in_flight = 0;
  auto send = [&](std::size_t slot) {
    const std::uint64_t id = next_id++;
    const Op& op = ops[id % ops.size()];
    hooks.sent(id, op);
    slots[slot] = {id, Clock::now(), true};
    transport.send(id, op);
    ++in_flight;
  };

  const auto start = Clock::now();
  const auto warm_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(plan.warmup_s));
  const auto window_len = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(plan.window_s));
  bool measuring = false;
  bool closed = false;
  Clock::time_point window_start{}, window_end{};
  std::uint64_t first_id = std::numeric_limits<std::uint64_t>::max();

  for (std::size_t k = 0; k < kOutstanding; ++k)
    if (!fixed || next_id < plan.total_ops) send(k);
  while (in_flight > 0) {
    Reply r = transport.receive();
    std::size_t slot = kOutstanding;
    for (std::size_t k = 0; k < kOutstanding; ++k)
      if (slots[k].used && slots[k].id == r.id) slot = k;
    if (slot == kOutstanding)
      throw std::runtime_error("answer for a request not in flight");
    slots[slot].used = false;
    --in_flight;
    const Clock::time_point sent = slots[slot].sent;
    if (!hooks.answered(r.id, ops[r.id % ops.size()], r)) ++res.failed;
    if (spans != nullptr) spans->record(span_name, sent, r.at, r.id);

    if (!measuring) {
      if (fixed ? next_id >= plan.warmup_ops : r.at >= warm_end) {
        measuring = true;
        window_start = r.at;
        first_id = next_id;
        if (hooks.started) hooks.started();
      }
    } else if (!closed) {
      ++res.window_completions;
      const auto at = static_cast<float>(seconds_between(window_start, r.at));
      res.completion_s.push_back(at);
      if (r.id >= first_id) {
        res.latency_us.push_back(static_cast<float>(us_between(sent, r.at)));
        res.latency_at_s.push_back(at);
      }
    }
    const bool more = fixed ? next_id < plan.total_ops
                            : !(measuring && r.at >= window_start + window_len);
    if (!more && measuring && !closed) {
      closed = true;
      window_end = r.at;
      if (hooks.ended) hooks.ended();
    }
    if (more) send(slot);
  }
  res.window_s = closed ? seconds_between(window_start, window_end) : 0;
  res.sent = next_id;
  res.first_id = measuring ? first_id : next_id;
  res.end_id = next_id;
  return res;
}

// --- the serving stack -----------------------------------------------------

/// What pcq_serve runs with when no flag overrides it.
const svc::ServiceConfig kProductionConfig{};

/// Service, TCP server and the one client connection, torn down in
/// reverse order. The graph a service reads must outlive the stack.
struct Stack {
  std::unique_ptr<svc::QueryService> service;
  std::unique_ptr<net::TcpServer> server;
  std::thread server_thread;
  std::string server_error;
  net::Client client;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { stop(); }

  void start_server() {
    server = std::make_unique<net::TcpServer>(*service, net::ServerOptions{});
    server_thread = std::thread([this] {
      try {
        server->run();
      } catch (const std::exception& e) {
        server_error = e.what();
      }
    });
    client.connect("127.0.0.1", server->port());
  }

  /// Stops every thread and answers what is in flight; the objects stay
  /// readable (counters) until the stack is destroyed, in reverse order.
  void stop() {
    client.close();
    if (server) server->request_stop();
    if (server_thread.joinable()) server_thread.join();
    if (service) service->stop();
    if (!server_error.empty())
      std::fprintf(stderr, "pcqbench: server failed: %s\n", server_error.c_str());
  }
};

/// Service and server counters, read at a window boundary.
struct Counters {
  std::uint64_t completed = 0, batches = 0, rejected = 0, expired = 0;
  double batch_sum = 0, latency_sum_us = 0, queue_wait_sum_us = 0;
  std::uint64_t flush_size = 0, flush_deadline = 0;
  std::uint64_t frames_in = 0, bytes = 0, protocol_errors = 0;
  // dyn registry series (ingest_mixed)
  std::uint64_t compactions = 0, compaction_count = 0, apply_count = 0;
  std::uint64_t compaction_sum_us = 0, apply_sum_us = 0;
};

Counters read_counters(const svc::QueryService& service,
                       const net::TcpServer* server) {
  Counters c;
  const svc::MetricsSnapshot m = service.metrics();
  c.completed = m.completed;
  c.batches = m.batches;
  c.rejected = m.rejected;
  c.expired = m.expired;
  c.batch_sum = m.mean_batch_size * static_cast<double>(m.batches);
  c.latency_sum_us = m.latency_mean_us * static_cast<double>(m.completed);
  c.queue_wait_sum_us = m.queue_wait_mean_us * static_cast<double>(m.completed);
  auto& reg = pcq::obs::MetricsRegistry::global();
  c.flush_size = reg.counter("svc.flush.size").value();
  c.flush_deadline = reg.counter("svc.flush.deadline").value();
  c.compactions = reg.counter("dyn.hybrid.compactions").value();
  const auto compaction = reg.histogram("dyn.hybrid.compaction_us").snapshot();
  c.compaction_count = compaction.count;
  c.compaction_sum_us = compaction.sum;
  const auto apply = reg.histogram("dyn.cpma.batch_us").snapshot();
  c.apply_count = apply.count;
  c.apply_sum_us = apply.sum;
  if (server != nullptr) {
    const net::ServerStats& s = server->stats();
    c.frames_in = s.frames_in.load();
    c.bytes = s.bytes_in.load() + s.bytes_out.load();
    c.protocol_errors = s.protocol_errors.load();
  }
  return c;
}

/// What the service and server did between two Counters readings.
struct WindowStats {
  double batch_mean = 0;
  double flush_deadline_share = 0;
  double queue_wait_mean_us = 0;
  double latency_mean_us = 0;  ///< enqueue -> completion
  std::uint64_t rejected = 0, expired = 0;
  double bytes_per_req = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t compactions = 0;
  double compaction_ms = 0;
  double apply_batch_us = 0;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

WindowStats diff(const Counters& a, const Counters& b) {
  WindowStats w;
  const auto completed = static_cast<double>(b.completed - a.completed);
  w.batch_mean = ratio(b.batch_sum - a.batch_sum,
                       static_cast<double>(b.batches - a.batches));
  const auto flushes = static_cast<double>((b.flush_size - a.flush_size) +
                                           (b.flush_deadline - a.flush_deadline));
  w.flush_deadline_share =
      ratio(static_cast<double>(b.flush_deadline - a.flush_deadline), flushes);
  w.queue_wait_mean_us = ratio(b.queue_wait_sum_us - a.queue_wait_sum_us, completed);
  w.latency_mean_us = ratio(b.latency_sum_us - a.latency_sum_us, completed);
  w.rejected = b.rejected - a.rejected;
  w.expired = b.expired - a.expired;
  w.bytes_per_req = ratio(static_cast<double>(b.bytes - a.bytes),
                          static_cast<double>(b.frames_in - a.frames_in));
  w.protocol_errors = b.protocol_errors - a.protocol_errors;
  w.compactions = b.compactions - a.compactions;
  w.compaction_ms =
      ratio(static_cast<double>(b.compaction_sum_us - a.compaction_sum_us),
            static_cast<double>(b.compaction_count - a.compaction_count)) /
      1e3;
  w.apply_batch_us =
      ratio(static_cast<double>(b.apply_sum_us - a.apply_sum_us),
            static_cast<double>(b.apply_count - a.apply_count));
  return w;
}

/// Runs the loop with window callbacks that read the counters, so the
/// warm-up prefix is excluded from every service statistic too.
template <typename Hooks>
std::pair<LoopResult, WindowStats> measured_loop(
    Transport& transport, const std::vector<Op>& ops, const LoopPlan& plan,
    Hooks& hooks, const svc::QueryService& service,
    const net::TcpServer* server, SpanLog* spans, const char* span_name) {
  Counters before, after;
  hooks.started = [&] { before = read_counters(service, server); };
  hooks.ended = [&] { after = read_counters(service, server); };
  LoopResult loop = closed_loop(transport, ops, plan, hooks, spans, span_name);
  hooks.started = nullptr;
  hooks.ended = nullptr;
  return {std::move(loop), diff(before, after)};
}

/// End-to-end serving metrics, regime evidence and the Little's-law check
/// of one closed-loop window.
/// The window cut into kSlices slices; the end-to-end serving metrics are
/// medians over the slices, so a burst of host interference (CPU steal on
/// a shared machine) that hits a few slices does not move them. A timed
/// window is cut into equal times; a fixed-work window into equal request
/// counts, so each slice covers the same stretch of the mutation stream
/// (the delta grows and compacts at the same points in every run).
constexpr int kSlices = 20;

struct Sliced {
  std::vector<double> qps, p50_us, p95_us;
};

Sliced slice_window(const LoopResult& loop, bool by_count) {
  std::vector<double> edges(kSlices + 1);
  const std::size_t n = loop.completion_s.size();
  for (int k = 0; k <= kSlices; ++k) {
    edges[k] = by_count && n > 0
                   ? (k == 0 ? 0.0 : loop.completion_s[k * (n - 1) / kSlices])
                   : loop.window_s * k / kSlices;
  }
  auto slice_of = [&](float at) {
    const auto it = std::upper_bound(edges.begin() + 1, edges.end() - 1,
                                     static_cast<double>(at));
    return static_cast<int>(it - (edges.begin() + 1));
  };
  std::vector<std::uint64_t> counts(kSlices, 0);
  std::vector<std::vector<float>> lat(kSlices);
  for (const float at : loop.completion_s) ++counts[slice_of(at)];
  for (std::size_t i = 0; i < loop.latency_us.size(); ++i)
    lat[slice_of(loop.latency_at_s[i])].push_back(loop.latency_us[i]);
  Sliced out;
  for (int k = 0; k < kSlices; ++k) {
    const double len = edges[k + 1] - edges[k];
    if (len <= 0 || lat[k].empty()) continue;
    out.qps.push_back(static_cast<double>(counts[k]) / len);
    out.p50_us.push_back(percentile(lat[k], 0.50));
    out.p95_us.push_back(percentile(lat[k], 0.95));
  }
  return out;
}

void report_serving(const LoopResult& loop, const WindowStats& w,
                    bool by_count, Result& out) {
  std::vector<float> lat = loop.latency_us;
  const Sliced sliced = slice_window(loop, by_count);
  out.set("qps", median(sliced.qps));
  out.set("p50_us", median(sliced.p50_us));
  out.set("p95_us", median(sliced.p95_us));
  out.note_reps("qps_per_slice", sliced.qps);
  out.note_reps("p95_us_per_slice", sliced.p95_us);
  out.notef("serving whole window: qps=%.1f mean_us=%.2f p50_us=%.2f "
           "p95_us=%.2f p99_us=%.2f samples=%zu window_s=%.3f",
           loop.qps(), loop.mean_us(), percentile(lat, 0.50),
           percentile(lat, 0.95), percentile(lat, 0.99), lat.size(),
           loop.window_s);
  out.notef("regime svc.batch_mean=%.3f svc.flush_deadline_share=%.4f "
           "outstanding=%zu svc.rejected=%llu svc.expired=%llu "
           "net.protocol_errors=%llu",
           w.batch_mean, w.flush_deadline_share, kOutstanding,
           static_cast<unsigned long long>(w.rejected),
           static_cast<unsigned long long>(w.expired),
           static_cast<unsigned long long>(w.protocol_errors));
  // Little's law: in a closed loop the mean number in flight is the
  // outstanding count, less the client's own time between an answer and
  // the next send.
  const double in_flight = loop.qps() * loop.mean_us() / 1e6;
  char what[160];
  std::snprintf(what, sizeof what,
                "little's law: qps x mean = %.3f in flight vs %zu outstanding",
                in_flight, kOutstanding);
  out.check(std::abs(in_flight / static_cast<double>(kOutstanding) - 1) <= 0.15,
            what);
}

/// Traced-run decomposition of the client-observed mean:
///   client = net + svc.queue_wait + svc.dispatch + kernel shares
///            + unattributed.
/// `tcp_mean` is the traced TCP mean and `inproc` the in-process mean over
/// the same requests; the svc parts come from the in-process window.
void report_decomposition(double tcp_mean, double untraced_mean,
                          const LoopResult& inproc, const WindowStats& svc_w,
                          double csr_share, double tcsr_share,
                          double dyn_share, Result& out) {
  const double net_us = tcp_mean - inproc.mean_us();
  const double service_us = svc_w.latency_mean_us - svc_w.queue_wait_mean_us;
  const double kernels = csr_share + tcsr_share + dyn_share;
  const double dispatch = service_us - kernels;
  const double unattributed =
      tcp_mean - (net_us + svc_w.queue_wait_mean_us + dispatch + kernels);
  out.set("net.mean_us", net_us);
  out.set("svc.queue_wait_mean_us", svc_w.queue_wait_mean_us);
  out.set("svc.dispatch_mean_us", dispatch);
  out.set("csr.kernel.share_us", csr_share);
  out.set("tcsr.kernel.share_us", tcsr_share);
  out.set("dyn.kernel.share_us", dyn_share);
  out.set("unattributed_us", unattributed);
  out.set("trace.overhead_pct",
          untraced_mean > 0 ? (tcp_mean - untraced_mean) / untraced_mean * 100
                            : 0);
  const double sum = net_us + svc_w.queue_wait_mean_us + dispatch + kernels +
                     unattributed;
  const bool adds_up = std::abs(sum - tcp_mean) <= 1e-6 * tcp_mean &&
                       dispatch >= 0 && net_us >= 0 &&
                       std::abs(unattributed) <= 0.25 * tcp_mean;
  out.notef("decomposition client.mean_us=%.3f = net %.3f + svc.queue_wait "
           "%.3f + svc.dispatch %.3f + csr.kernel %.3f + tcsr.kernel %.3f + "
           "dyn.kernel %.3f + unattributed %.3f (%.1f%%)%s",
           tcp_mean, net_us, svc_w.queue_wait_mean_us, dispatch, csr_share,
           tcsr_share, dyn_share, unattributed,
           tcp_mean > 0 ? unattributed / tcp_mean * 100 : 0,
           adds_up ? "" : "  FLAG: does not add up (negative part or "
                          "unattributed over 25%)");
}

void report_client(const LoopResult& traced, Result& out) {
  std::vector<float> lat = traced.latency_us;
  out.set("client.mean_us", traced.mean_us());
  out.set("client.p99_us", percentile(lat, 0.99));
  out.set("client.samples", static_cast<double>(lat.size()));
}

void report_svc(const WindowStats& w, Result& out) {
  out.set("svc.batch_mean", w.batch_mean);
  out.set("svc.flush_deadline_share", w.flush_deadline_share);
  out.set("svc.rejected", static_cast<double>(w.rejected));
  out.set("svc.expired", static_cast<double>(w.expired));
  out.set("net.bytes_per_req", w.bytes_per_req);
  out.set("net.protocol_errors", static_cast<double>(w.protocol_errors));
}

/// Binds the calling thread to the last CPU it may run on (away from CPU 0,
/// where a VM's device interrupts land, and the same one on every run).
/// The service worker and the epoll thread are created afterwards and
/// inherit the binding, so client, server and service share one vCPU. On a
/// shared VM a closed loop across three vCPUs waits for the host to
/// reschedule each halted vCPU on every hand-off, and CPU steal on any of
/// them cuts the rate by half or more; on one vCPU the hand-offs are local
/// context switches. The OpenMP workers of builds and analytics keep every
/// CPU.
void pin_serving_to_one_cpu(Result& out) {
  cpu_set_t allowed;
  int cpu = -1;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) cpu = c;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) CPU_SET(cpu, &set);
  const bool pinned = cpu >= 0 && sched_setaffinity(0, sizeof set, &set) == 0;
  out.notef("serving threads pinned to cpu %d%s", cpu,
            pinned ? "" : " FAILED (running unpinned)");
}

std::uint64_t digest(QueryKind kind, bool exists, std::uint32_t degree,
                     std::span<const VertexId> neighbors) {
  using pcq::util::mix64;
  switch (kind) {
    case QueryKind::kDegree:
      return mix64(0x100 + std::uint64_t{degree});
    case QueryKind::kNeighbors: {
      std::uint64_t h = mix64(0x300 + neighbors.size());
      for (const VertexId v : neighbors) h = mix64(h ^ v);
      return h;
    }
    default:
      return mix64(0x200 + std::uint64_t{exists});
  }
}

double mb(std::size_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

// ===========================================================================
// serve_read
// ===========================================================================

struct ReadInput {
  pcq::graph::EdgeList edges;  ///< unsorted R-MAT list
  pcq::graph::TemporalEdgeList events;
  std::vector<Op> pool;
};

std::vector<Op> make_read_pool(const PlainGraph& g, std::uint64_t seed) {
  pcq::util::SplitMix64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<Op> pool(kReadPool);
  for (Op& op : pool) {
    const double roll = rng.next_double();
    op.u = static_cast<VertexId>(rng.next_below(kReadNodes));
    if (roll < 0.40) {
      op.kind = QueryKind::kDegree;
    } else if (roll < 0.70) {
      op.kind = QueryKind::kEdgeExists;
      const std::uint64_t deg = g.degree(op.u);
      // Half the edge queries name a real neighbour, so both answers occur.
      op.v = deg > 0 && rng.next_bool(0.5)
                 ? g.edges[g.offsets[op.u] + rng.next_below(deg)].v
                 : static_cast<VertexId>(rng.next_below(kReadNodes));
    } else if (roll < 0.90) {
      op.kind = QueryKind::kNeighbors;
    } else {
      op.kind = QueryKind::kTemporalEdge;
      op.v = static_cast<VertexId>(rng.next_below(kReadNodes));
      op.t = static_cast<TimeFrame>(rng.next_below(kReadFrames));
    }
  }
  return pool;
}

/// Expected answer digest per pool entry, from direct batch-kernel calls.
std::vector<std::uint64_t> expected_digests(
    const pcq::csr::BitPackedCsr& csr,
    const pcq::tcsr::DifferentialTcsr& history, const std::vector<Op>& pool,
    int threads) {
  std::vector<std::size_t> deg_ids, nbr_ids, edge_ids, tedge_ids;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    switch (pool[i].kind) {
      case QueryKind::kDegree: deg_ids.push_back(i); break;
      case QueryKind::kNeighbors: nbr_ids.push_back(i); break;
      case QueryKind::kEdgeExists: edge_ids.push_back(i); break;
      default: tedge_ids.push_back(i); break;
    }
  }
  std::vector<std::uint64_t> out(pool.size());
  {
    std::vector<VertexId> nodes;
    for (const std::size_t i : deg_ids) nodes.push_back(pool[i].u);
    std::vector<std::uint32_t> degrees(nodes.size());
    pcq::csr::batch_degrees_into(csr, nodes, degrees, threads);
    for (std::size_t j = 0; j < deg_ids.size(); ++j)
      out[deg_ids[j]] = digest(QueryKind::kDegree, false, degrees[j], {});
  }
  {
    std::vector<VertexId> nodes;
    for (const std::size_t i : nbr_ids) nodes.push_back(pool[i].u);
    const auto rows = pcq::csr::batch_neighbors_flat(csr, nodes, threads);
    for (std::size_t j = 0; j < nbr_ids.size(); ++j)
      out[nbr_ids[j]] = digest(QueryKind::kNeighbors, false, 0, rows.row(j));
  }
  {
    std::vector<Edge> edges;
    for (const std::size_t i : edge_ids) edges.push_back({pool[i].u, pool[i].v});
    std::vector<std::uint8_t> hits(edges.size());
    pcq::csr::batch_edge_existence_into(csr, edges, hits, threads,
                                        pcq::csr::RowSearch::kBinary);
    for (std::size_t j = 0; j < edge_ids.size(); ++j)
      out[edge_ids[j]] = digest(QueryKind::kEdgeExists, hits[j] != 0, 0, {});
  }
  {
    std::vector<pcq::tcsr::TemporalEdgeQuery> queries;
    for (const std::size_t i : tedge_ids)
      queries.push_back({pool[i].u, pool[i].v, pool[i].t});
    const auto hits = history.batch_edge_active(queries, threads);
    for (std::size_t j = 0; j < tedge_ids.size(); ++j)
      out[tedge_ids[j]] = digest(QueryKind::kTemporalEdge, hits[j] != 0, 0, {});
  }
  return out;
}

/// serve_read answers must equal the direct kernel answers.
struct ReadHooks : WindowHooks {
  const std::vector<std::uint64_t>* expected = nullptr;
  std::uint64_t not_ok = 0;
  std::uint64_t wrong = 0;

  void sent(std::uint64_t, const Op&) {}
  bool answered(std::uint64_t id, const Op& op, const Reply& r) {
    if (r.status != Status::kOk) {
      ++not_ok;
      return false;
    }
    if (digest(op.kind, r.exists, r.degree, r.neighbors) !=
        (*expected)[id % expected->size()]) {
      ++wrong;
      return false;
    }
    return true;
  }
};

/// Direct kernel replay of requests [first, end) grouped `group` at a
/// time, in the order the service runs a batch's kinds. Reports per-batch
/// kernel times, per-request kernel shares and per-query costs.
struct KernelReplay {
  double csr_share_us = 0, tcsr_share_us = 0;
  double csr_batch_us = 0, tcsr_batch_us = 0;
  double csr_ns_per_query = 0, tcsr_ns_per_query = 0;
  double decoded_per_query = 0;
  std::vector<VertexId> neighbor_rows;  ///< rows the replay decoded
};

KernelReplay replay_read_kernels(const pcq::csr::BitPackedCsr& csr,
                                 const pcq::tcsr::DifferentialTcsr& history,
                                 const std::vector<Op>& pool,
                                 std::uint64_t first, std::uint64_t end,
                                 std::size_t group, SpanLog& spans) {
  KernelReplay rep;
  double csr_us_total = 0, tcsr_us_total = 0;
  double csr_share_sum = 0, tcsr_share_sum = 0;
  std::uint64_t csr_queries = 0, tcsr_queries = 0, requests = 0, groups = 0;
  std::uint64_t decoded = 0;
  std::vector<VertexId> deg_nodes, nbr_nodes;
  std::vector<Edge> edges;
  std::vector<pcq::tcsr::TemporalEdgeQuery> tqueries;
  std::vector<std::uint32_t> degrees;
  std::vector<std::uint8_t> hits;
  std::vector<std::vector<VertexId>> rows;
  for (std::uint64_t s = first; s < end; s += group) {
    const std::uint64_t e = std::min<std::uint64_t>(end, s + group);
    deg_nodes.clear();
    nbr_nodes.clear();
    edges.clear();
    tqueries.clear();
    for (std::uint64_t id = s; id < e; ++id) {
      const Op& op = pool[id % pool.size()];
      switch (op.kind) {
        case QueryKind::kDegree: deg_nodes.push_back(op.u); break;
        case QueryKind::kNeighbors: nbr_nodes.push_back(op.u); break;
        case QueryKind::kEdgeExists: edges.push_back({op.u, op.v}); break;
        default: tqueries.push_back({op.u, op.v, op.t}); break;
      }
    }
    degrees.assign(deg_nodes.size(), 0);
    rows.assign(nbr_nodes.size(), {});
    hits.assign(edges.size(), 0);
    const auto t0 = Clock::now();
    if (!deg_nodes.empty())
      pcq::csr::batch_degrees_into(csr, deg_nodes, degrees, 1);
    const auto t1 = Clock::now();
    if (!nbr_nodes.empty())
      pcq::csr::batch_neighbors_into(csr, nbr_nodes, rows, 1);
    const auto t2 = Clock::now();
    if (!edges.empty())
      pcq::csr::batch_edge_existence_into(csr, edges, hits, 1,
                                          pcq::csr::RowSearch::kBinary);
    const auto t3 = Clock::now();
    if (!tqueries.empty()) (void)history.batch_edge_active(tqueries, 1);
    const auto t4 = Clock::now();
    if (!deg_nodes.empty()) spans.record("csr.batch_degrees_into", t0, t1, s);
    if (!nbr_nodes.empty()) spans.record("csr.batch_neighbors_into", t1, t2, s);
    if (!edges.empty()) spans.record("csr.batch_edge_existence_into", t2, t3, s);
    if (!tqueries.empty()) spans.record("tcsr.batch_edge_active", t3, t4, s);
    const double d_deg = us_between(t0, t1), d_nbr = us_between(t1, t2);
    const double d_edge = us_between(t2, t3), d_t = us_between(t3, t4);
    // A request completes after the kernels of its own kind and of every
    // kind the service runs before it.
    csr_share_sum += static_cast<double>(deg_nodes.size()) * d_deg +
                     static_cast<double>(nbr_nodes.size()) * (d_deg + d_nbr) +
                     static_cast<double>(edges.size()) * (d_deg + d_nbr + d_edge) +
                     static_cast<double>(tqueries.size()) * (d_deg + d_nbr + d_edge);
    tcsr_share_sum += static_cast<double>(tqueries.size()) * d_t;
    csr_us_total += d_deg + d_nbr + d_edge;
    tcsr_us_total += d_t;
    csr_queries += deg_nodes.size() + nbr_nodes.size() + edges.size();
    tcsr_queries += tqueries.size();
    requests += e - s;
    ++groups;
    for (std::size_t j = 0; j < rows.size(); ++j) decoded += rows[j].size();
    rep.neighbor_rows.insert(rep.neighbor_rows.end(), nbr_nodes.begin(),
                             nbr_nodes.end());
  }
  const auto req = static_cast<double>(requests);
  rep.csr_share_us = ratio(csr_share_sum, req);
  rep.tcsr_share_us = ratio(tcsr_share_sum, req);
  rep.csr_batch_us = ratio(csr_us_total, static_cast<double>(groups));
  rep.tcsr_batch_us = ratio(tcsr_us_total, static_cast<double>(groups));
  rep.csr_ns_per_query = ratio(csr_us_total * 1e3, static_cast<double>(csr_queries));
  rep.tcsr_ns_per_query =
      ratio(tcsr_us_total * 1e3, static_cast<double>(tcsr_queries));
  rep.decoded_per_query = ratio(static_cast<double>(decoded),
                                static_cast<double>(rep.neighbor_rows.size()));
  return rep;
}

}  // namespace

void run_serve_read(const Options& opt, Result& out) {
  const int threads = kThreads;
  // Inputs from the seed.
  ReadInput in;
  in.edges = pcq::graph::rmat(kReadNodes, kReadEdges, kRmatA, kRmatB, kRmatC,
                              opt.seed, threads);
  in.events = pcq::graph::evolving_graph(kReadNodes, kReadEvents, kReadFrames,
                                         opt.seed + 1, threads);
  const PlainGraph plain(in.edges.edges(), kReadNodes);
  in.pool = make_read_pool(plain, opt.seed);
  pin_serving_to_one_cpu(out);
  const std::size_t input_bytes =
      in.edges.size_bytes() + in.events.size_bytes() + plain.bytes() +
      in.pool.size() * sizeof(Op);

  // Set-up, repeated: sort + packed CSR build + TCSR build + service +
  // server + connect. The stack of the last repetition serves.
  std::unique_ptr<pcq::csr::BitPackedCsr> csr;
  std::unique_ptr<pcq::tcsr::DifferentialTcsr> history;
  auto stack = std::make_unique<Stack>();
  std::vector<BuildSample> builds;
  std::vector<double> build_s;
  // Analytics over the served graph, one repetition after each set-up.
  const std::vector<VertexId> sources = pick_sources(
      static_cast<VertexId>(plain.offsets.size() - 1),
      [&](VertexId u) { return plain.degree(u); }, opt.seed, kAnalyticsSources);
  std::vector<AnalyticsTimes> analytics;
  auto setup_once = [&](bool keep) {
    pcq::graph::EdgeList list = in.edges;  // the copy is not timed
    stack = std::make_unique<Stack>();
    BuildSample sample;
    const auto t0 = Clock::now();
    list.sort(threads);
    list.dedupe();
    csr = std::make_unique<pcq::csr::BitPackedCsr>(
        timed_csr_build(list, kReadNodes, threads, sample));
    history = std::make_unique<pcq::tcsr::DifferentialTcsr>(
        timed_tcsr_build(in.events, kReadNodes, kReadFrames, threads, sample));
    stack->service = std::make_unique<svc::QueryService>(*csr, history.get(),
                                                         kProductionConfig);
    stack->start_server();
    const double total = seconds_since(t0);
    builds.push_back(sample);
    build_s.push_back(sample.csr_wall_s + sample.tcsr_wall_s);
    if (!keep) stack->stop();
    analytics.push_back(analytics_once(*csr, sources, threads));
    return total;
  };
  std::vector<double> setup_s;
  for (int r = 0; r < kReadSetups; ++r)
    setup_s.push_back(setup_once(r == kReadSetups - 1));
  out.set("setup_s", warm_median(setup_s, kWarmupSetups));
  out.set("build_s", warm_median(build_s, kWarmupSetups));
  out.note_reps("setup_s", setup_s);
  out.note_reps("build_s", build_s);
  report_analytics(analytics, kWarmupSetups, out);
  out.set("bytes_per_edge", static_cast<double>(csr->size_bytes()) /
                                static_cast<double>(csr->num_edges()));
  out.notef("input serve_read nodes=%u edges=%zu (deduped %zu) packed_mb=%.2f "
           "events=%zu frames=%u pool=%zu",
           kReadNodes, kReadEdges, csr->num_edges(), mb(csr->size_bytes()),
           kReadEvents, kReadFrames, in.pool.size());

  const std::vector<std::uint64_t> expected =
      expected_digests(*csr, *history, in.pool, threads);

  // End-to-end phase: TCP closed loop, spans off.
  const double warmup = std::min(1.0, 0.1 * opt.seconds);
  const LoopPlan plan{0, 0, warmup, opt.seconds};
  ReadHooks hooks;
  hooks.expected = &expected;
  TcpTransport tcp(stack->client);
  auto [loop, w] = measured_loop(tcp, in.pool, plan, hooks, *stack->service,
                                 stack->server.get(), nullptr, "");
  out.attempted += loop.sent;
  out.failed += loop.failed;
  report_serving(loop, w, false, out);
  report_svc(w, out);
  const double untraced_mean = loop.mean_us();

  // Answers of every phase count towards the answer check.
  std::uint64_t not_ok = hooks.not_ok, wrong = hooks.wrong, checked = loop.sent;
  SpanLog spans;
  if (opt.trace) {
    // 1. The end-to-end phase again, spans on.
    ReadHooks traced_hooks;
    traced_hooks.expected = &expected;
    auto [traced, tw] = measured_loop(tcp, in.pool, plan, traced_hooks,
                                      *stack->service, stack->server.get(),
                                      &spans, "net.client.request");
    out.attempted += traced.sent;
    out.failed += traced.failed;
    report_client(traced, out);
    report_svc(tw, out);
    stack->stop();

    // 2. In-process submit at the same outstanding count: svc and below.
    Stack inproc_stack;
    inproc_stack.service = std::make_unique<svc::QueryService>(
        *csr, history.get(), kProductionConfig);
    InProcessTransport inproc_transport(*inproc_stack.service);
    ReadHooks inproc_hooks;
    inproc_hooks.expected = &expected;
    auto [inproc, iw] =
        measured_loop(inproc_transport, in.pool, plan, inproc_hooks,
                      *inproc_stack.service, nullptr, &spans,
                      "svc.submit.request");
    inproc_stack.stop();
    out.attempted += inproc.sent;
    out.failed += inproc.failed;
    not_ok += traced_hooks.not_ok + inproc_hooks.not_ok;
    wrong += traced_hooks.wrong + inproc_hooks.wrong;
    checked += traced.sent + inproc.sent;
    out.notef("inprocess qps=%.1f mean_us=%.2f svc.batch_mean=%.3f "
             "svc.queue_wait_mean_us=%.2f svc.latency_mean_us=%.2f",
             inproc.qps(), inproc.mean_us(), iw.batch_mean,
             iw.queue_wait_mean_us, iw.latency_mean_us);

    // 3. Direct kernels over the traced phase's requests, grouped at the
    //    service's mean batch size.
    const auto group = static_cast<std::size_t>(
        std::max(1.0, std::round(iw.batch_mean)));
    const KernelReplay rep =
        replay_read_kernels(*csr, *history, in.pool, traced.first_id,
                            traced.end_id, group, spans);
    out.set("csr.kernel.batch_us", rep.csr_batch_us);
    out.set("tcsr.kernel.batch_us", rep.tcsr_batch_us);
    out.set("csr.kernel.ns_per_query", rep.csr_ns_per_query);
    out.set("tcsr.kernel.ns_per_query", rep.tcsr_ns_per_query);
    out.set("csr.decoded_per_query", rep.decoded_per_query);
    report_decomposition(traced.mean_us(), untraced_mean, inproc, iw,
                         rep.csr_share_us, rep.tcsr_share_us, 0, out);

    // 4. unpack_words over the rows those requests decoded.
    out.set("bits.unpack_mvals_s",
            unpack_rate_mvals(*csr, rep.neighbor_rows, 3, &spans));
    out.set("tcsr.bytes_per_event",
            static_cast<double>(history->size_bytes()) /
                static_cast<double>(kReadEvents));
    report_builds(builds, kWarmupSetups, true, out);
  }
  stack->stop();

  out.check(not_ok == 0 && wrong == 0,
            "serve_read answers equal the direct csr/tcsr kernel answers (" +
                std::to_string(not_ok) + " not kOk, " + std::to_string(wrong) +
                " wrong of " + std::to_string(checked) + ")");

  out.set("mem.input_mb", mb(input_bytes + expected.size() * 8 +
                             3 * loop.completion_s.size() * sizeof(float)));
  out.set("peak_rss_mb", peak_rss_mb());
  if (opt.trace && !opt.trace_out.empty()) spans.write_chrome_trace(opt.trace_out);
}

// ===========================================================================
// ingest_mixed
// ===========================================================================

namespace {

std::vector<Op> make_ingest_ops(const PlainGraph& base, std::uint64_t count,
                                std::uint64_t seed) {
  pcq::util::SplitMix64 rng(seed ^ 0xd1b54a32d192ed03ull);
  std::vector<Op> ops(count);
  for (Op& op : ops) {
    op.u = static_cast<VertexId>(rng.next_below(kIngestNodes));
    if (rng.next_bool(0.5)) {
      if (rng.next_bool(0.8)) {
        op.kind = QueryKind::kAddEdges;
        op.v = static_cast<VertexId>(rng.next_below(kIngestNodes - 1));
        if (op.v >= op.u) ++op.v;  // no self-loops
      } else {
        // Removals name an edge of the base, so they change the graph.
        op.kind = QueryKind::kRemoveEdges;
        const Edge& e = base.edges[rng.next_below(base.edges.size())];
        op.u = e.u;
        op.v = e.v;
      }
      continue;
    }
    // The serve_read mix without its temporal share: 40:30:20.
    const double roll = rng.next_double() * 0.9;
    if (roll < 0.40) {
      op.kind = QueryKind::kDegree;
    } else if (roll < 0.70) {
      op.kind = QueryKind::kEdgeExists;
      const std::uint64_t deg = base.degree(op.u);
      op.v = deg > 0 && rng.next_bool(0.5)
                 ? base.edges[base.offsets[op.u] + rng.next_below(deg)].v
                 : static_cast<VertexId>(rng.next_below(kIngestNodes));
    } else {
      op.kind = QueryKind::kNeighbors;
    }
  }
  return ops;
}

/// Replays acknowledged mutations into a std::set and checks each
/// mutation's "visibility changed" flag against it. Opposite mutations of
/// one edge in flight together may land in either order; such edges are
/// recorded as ambiguous and accepted either way.
struct IngestHooks : WindowHooks {
  std::set<std::uint64_t> visible;
  std::set<std::uint64_t> ambiguous;
  std::unordered_map<std::uint64_t, std::pair<int, int>> in_flight;
  std::uint64_t not_ok = 0, wrong = 0, mutations = 0, changed = 0;

  void sent(std::uint64_t, const Op& op) {
    if (!is_write(op)) return;
    auto& [adds, removes] = in_flight[edge_key(op.u, op.v)];
    if (is_add(op) ? removes > 0 : adds > 0)
      ambiguous.insert(edge_key(op.u, op.v));
    ++(is_add(op) ? adds : removes);
  }

  bool answered(std::uint64_t, const Op& op, const Reply& r) {
    bool ok = r.status == Status::kOk;
    if (is_write(op)) {
      const std::uint64_t key = edge_key(op.u, op.v);
      auto it = in_flight.find(key);
      --(is_add(op) ? it->second.first : it->second.second);
      if (it->second.first == 0 && it->second.second == 0) in_flight.erase(it);
      if (ok) {
        ++mutations;
        changed += r.exists ? 1 : 0;
        const bool was = visible.count(key) != 0;
        if (is_add(op))
          visible.insert(key);
        else
          visible.erase(key);
        if (ambiguous.count(key) == 0 && r.exists != (is_add(op) != was)) {
          ++wrong;
          return false;
        }
      }
    } else if (ok && op.kind == QueryKind::kNeighbors) {
      for (std::size_t i = 0; i < r.neighbors.size(); ++i) {
        if (r.neighbors[i] >= kIngestNodes ||
            (i > 0 && r.neighbors[i - 1] >= r.neighbors[i])) {
          ++wrong;
          return false;
        }
      }
    }
    if (!ok) ++not_ok;
    return ok;
  }
};

/// Compares the graph's final visible edge set with the replay. Returns
/// the number of mismatching edges outside the ambiguous set; `landed`
/// counts ambiguous edges whose final state differs from the replay order.
std::uint64_t compare_final(const pcq::dyn::HybridGraph& graph,
                            const IngestHooks& hooks, std::uint64_t* landed) {
  const auto view = graph.view();
  std::uint64_t mismatches = 0;
  *landed = 0;
  auto it = hooks.visible.begin();
  std::vector<std::uint64_t> expected_row;
  for (VertexId u = 0; u < kIngestNodes; ++u) {
    expected_row.clear();
    const std::uint64_t row_end = edge_key(u + 1, 0);
    while (it != hooks.visible.end() && *it < row_end) expected_row.push_back(*it++);
    std::vector<std::uint64_t> actual;
    for (const VertexId v : view.neighbors(u)) actual.push_back(edge_key(u, v));
    std::vector<std::uint64_t> differ;
    std::set_symmetric_difference(expected_row.begin(), expected_row.end(),
                                  actual.begin(), actual.end(),
                                  std::back_inserter(differ));
    for (const std::uint64_t key : differ)
      ++(hooks.ambiguous.count(key) != 0 ? *landed : mismatches);
  }
  return mismatches;
}

/// Direct replay through HybridGraph of requests [first, end), grouped
/// like service batches: reads on one pinned View in the service's kind
/// order, then the batch's adds, removes and the compaction check.
/// Returns the mean per-request kernel share in microseconds.
double replay_dyn(pcq::dyn::HybridGraph& graph, const std::vector<Op>& ops,
                  std::uint64_t first, std::uint64_t end, std::size_t group,
                  SpanLog& spans) {
  double share_sum = 0;
  std::vector<VertexId> deg_nodes, nbr_nodes;
  std::vector<Edge> edges, adds, removes;
  std::uint64_t sink = 0;
  for (std::uint64_t s = first; s < end; s += group) {
    const std::uint64_t e = std::min<std::uint64_t>(end, s + group);
    deg_nodes.clear();
    nbr_nodes.clear();
    edges.clear();
    adds.clear();
    removes.clear();
    for (std::uint64_t id = s; id < e; ++id) {
      const Op& op = ops[id];
      switch (op.kind) {
        case QueryKind::kDegree: deg_nodes.push_back(op.u); break;
        case QueryKind::kNeighbors: nbr_nodes.push_back(op.u); break;
        case QueryKind::kEdgeExists: edges.push_back({op.u, op.v}); break;
        case QueryKind::kAddEdges: adds.push_back({op.u, op.v}); break;
        default: removes.push_back({op.u, op.v}); break;
      }
    }
    const auto t0 = Clock::now();
    const auto view = graph.view();
    for (const VertexId u : deg_nodes) sink += view.degree(u);
    const auto t1 = Clock::now();
    for (const VertexId u : nbr_nodes) sink += view.neighbors(u).size();
    const auto t2 = Clock::now();
    for (const Edge& x : edges) sink += view.has_edge(x.u, x.v) ? 1 : 0;
    const auto t3 = Clock::now();
    std::vector<std::uint8_t> changed;
    if (!adds.empty()) graph.add_edges(adds, 1, &changed);
    const auto t4 = Clock::now();
    if (!removes.empty()) graph.remove_edges(removes, 1, &changed);
    const auto t5 = Clock::now();
    if (!adds.empty() || !removes.empty()) graph.maybe_compact(1);
    const auto t6 = Clock::now();
    spans.record("dyn.view.reads", t0, t3, s);
    if (!adds.empty()) spans.record("dyn.add_edges", t3, t4, s);
    if (!removes.empty()) spans.record("dyn.remove_edges", t4, t5, s);
    spans.record("dyn.maybe_compact", t5, t6, s);
    share_sum += static_cast<double>(deg_nodes.size()) * us_between(t0, t1) +
                 static_cast<double>(nbr_nodes.size()) * us_between(t0, t2) +
                 static_cast<double>(edges.size()) * us_between(t0, t3) +
                 static_cast<double>(adds.size()) * us_between(t0, t4) +
                 static_cast<double>(removes.size()) * us_between(t0, t5);
  }
  keep_alive(sink);
  return ratio(share_sum, static_cast<double>(end - first));
}

}  // namespace

void run_ingest_mixed(const Options& opt, Result& out) {
  const int threads = kThreads;
  pcq::graph::EdgeList edges = pcq::graph::rmat(
      kIngestNodes, kIngestEdges, kRmatA, kRmatB, kRmatC, opt.seed, threads);
  const PlainGraph plain(edges.edges(), kIngestNodes);
  const auto total_ops = static_cast<std::uint64_t>(
      std::llround(opt.seconds * kIngestRequestsPerSecond));
  const std::vector<Op> ops = make_ingest_ops(plain, total_ops, opt.seed);
  pin_serving_to_one_cpu(out);

  // Set-up, repeated: sort + packed base build + HybridGraph + service +
  // server + connect.
  std::unique_ptr<pcq::dyn::HybridGraph> graph;
  pcq::csr::BitPackedCsr base_copy;
  auto stack = std::make_unique<Stack>();
  std::vector<BuildSample> builds;
  std::vector<double> build_s;
  // Analytics over the base graph, one repetition after each set-up.
  const std::vector<VertexId> sources = pick_sources(
      static_cast<VertexId>(plain.offsets.size() - 1),
      [&](VertexId u) { return plain.degree(u); }, opt.seed, kAnalyticsSources);
  std::vector<AnalyticsTimes> analytics;
  auto setup_once = [&](bool keep) {
    pcq::graph::EdgeList list = edges;
    stack = std::make_unique<Stack>();
    BuildSample sample;
    const auto t0 = Clock::now();
    list.sort(threads);
    list.dedupe();
    pcq::csr::BitPackedCsr base =
        timed_csr_build(list, kIngestNodes, threads, sample);
    if (keep) base_copy = base;  // fresh graphs for the traced phases
    graph = std::make_unique<pcq::dyn::HybridGraph>(std::move(base));
    stack->service =
        std::make_unique<svc::QueryService>(*graph, nullptr, kProductionConfig);
    stack->start_server();
    const double total = seconds_since(t0);
    builds.push_back(sample);
    build_s.push_back(sample.csr_wall_s);
    if (!keep) stack->stop();
    analytics.push_back(analytics_once(graph->view().base(), sources, threads));
    return total;
  };
  std::vector<double> setup_s;
  for (int r = 0; r < kIngestSetups; ++r)
    setup_s.push_back(setup_once(r == kIngestSetups - 1));
  out.set("setup_s", warm_median(setup_s, kWarmupSetups));
  out.set("build_s", warm_median(build_s, kWarmupSetups));
  out.note_reps("setup_s", setup_s);
  out.note_reps("build_s", build_s);
  report_analytics(analytics, kWarmupSetups, out);
  out.notef("input ingest_mixed nodes=%u edges=%zu (deduped %zu) base_kb=%.1f "
           "requests=%llu (half writes, 80%% add)",
           kIngestNodes, kIngestEdges, base_copy.num_edges(),
           static_cast<double>(base_copy.size_bytes()) / 1024,
           static_cast<unsigned long long>(total_ops));

  auto fresh_hooks = [&] {
    IngestHooks h;
    for (const Edge& e : plain.edges) h.visible.insert(h.visible.end(), edge_key(e.u, e.v));
    return h;
  };

  // End-to-end phase: the fixed request stream over TCP, spans off.
  const LoopPlan plan{total_ops, total_ops / 10, 0, 0};
  IngestHooks hooks = fresh_hooks();
  TcpTransport tcp(stack->client);
  Counters run_start = read_counters(*stack->service, stack->server.get());
  auto [loop, w] = measured_loop(tcp, ops, plan, hooks, *stack->service,
                                 stack->server.get(), nullptr, "");
  // Stopping joins the shard worker, so a compaction the last batch
  // started has finished before the counters are read.
  stack->stop();
  const WindowStats whole = diff(run_start, read_counters(*stack->service,
                                                          stack->server.get()));
  out.attempted += loop.sent;
  out.failed += loop.failed;
  report_serving(loop, w, true, out);
  report_svc(w, out);
  const double untraced_mean = loop.mean_us();

  const auto view = graph->view();
  const std::size_t delta_bytes = view.delta().size_bytes();
  out.set("bytes_per_edge",
          static_cast<double>(view.base().size_bytes() + delta_bytes) /
              static_cast<double>(view.num_edges()));
  out.set("dyn.compactions", static_cast<double>(whole.compactions));
  out.set("dyn.compaction_ms", whole.compaction_ms);
  out.set("dyn.apply_batch_us", whole.apply_batch_us);
  out.set("dyn.changed_share", ratio(static_cast<double>(hooks.changed),
                                     static_cast<double>(hooks.mutations)));
  out.set("dyn.delta_bytes_end", static_cast<double>(delta_bytes));
  out.set("dyn.ambiguous_edges", static_cast<double>(hooks.ambiguous.size()));
  out.notef("regime dyn.compactions=%llu dyn.compaction_ms=%.3f "
           "dyn.apply_batch_us=%.3f visible_edges=%zu delta_keys=%zu",
           static_cast<unsigned long long>(whole.compactions),
           whole.compaction_ms, whole.apply_batch_us, view.num_edges(),
           view.delta().size());
  if (whole.compactions < 2)
    out.note("REGIME FLAG: fewer than two compactions in the run");

  std::uint64_t landed = 0;
  const std::uint64_t mismatches = compare_final(*graph, hooks, &landed);
  out.check(hooks.not_ok == 0 && hooks.wrong == 0,
            "ingest_mixed answers kOk with consistent change flags (" +
                std::to_string(hooks.not_ok) + " not kOk, " +
                std::to_string(hooks.wrong) + " wrong of " +
                std::to_string(loop.sent) + ")");
  out.check(mismatches == 0,
            "final visible edge set equals the std::set replay (" +
                std::to_string(mismatches) + " mismatches, " +
                std::to_string(hooks.ambiguous.size()) +
                " ambiguous edges of which " + std::to_string(landed) +
                " landed against the replay order)");

  SpanLog spans;
  if (opt.trace) {
    // 1. The end-to-end phase again on a fresh graph, spans on.
    pcq::dyn::HybridGraph traced_graph(base_copy);
    Stack traced_stack;
    traced_stack.service = std::make_unique<svc::QueryService>(
        traced_graph, nullptr, kProductionConfig);
    traced_stack.start_server();
    TcpTransport traced_tcp(traced_stack.client);
    IngestHooks traced_hooks = fresh_hooks();
    auto [traced, tw] = measured_loop(traced_tcp, ops, plan, traced_hooks,
                                      *traced_stack.service,
                                      traced_stack.server.get(), &spans,
                                      "net.client.request");
    traced_stack.stop();
    out.attempted += traced.sent;
    out.failed += traced.failed;
    report_client(traced, out);
    report_svc(tw, out);
    out.check(traced_hooks.not_ok == 0 && traced_hooks.wrong == 0 &&
                  compare_final(traced_graph, traced_hooks, &landed) == 0,
              "traced phase: answers and final edge set match its replay");

    // 2. In-process submit on a fresh graph.
    pcq::dyn::HybridGraph inproc_graph(base_copy);
    Stack inproc_stack;
    inproc_stack.service = std::make_unique<svc::QueryService>(
        inproc_graph, nullptr, kProductionConfig);
    InProcessTransport inproc_transport(*inproc_stack.service);
    IngestHooks inproc_hooks = fresh_hooks();
    auto [inproc, iw] = measured_loop(inproc_transport, ops, plan, inproc_hooks,
                                      *inproc_stack.service, nullptr, &spans,
                                      "svc.submit.request");
    inproc_stack.stop();
    out.attempted += inproc.sent;
    out.failed += inproc.failed;
    out.check(inproc_hooks.not_ok == 0 && inproc_hooks.wrong == 0 &&
                  compare_final(inproc_graph, inproc_hooks, &landed) == 0,
              "in-process phase: answers and final edge set match its replay");
    out.notef("inprocess qps=%.1f mean_us=%.2f svc.batch_mean=%.3f "
             "svc.queue_wait_mean_us=%.2f svc.latency_mean_us=%.2f",
             inproc.qps(), inproc.mean_us(), iw.batch_mean,
             iw.queue_wait_mean_us, iw.latency_mean_us);

    // 3. Direct HybridGraph calls over the same stream, from the start so
    //    the graph state matches, grouped at the service's batch size.
    pcq::dyn::HybridGraph replay_graph(base_copy);
    const auto group = static_cast<std::size_t>(
        std::max(1.0, std::round(iw.batch_mean)));
    replay_dyn(replay_graph, ops, 0, traced.first_id, group, spans);
    const double dyn_share =
        replay_dyn(replay_graph, ops, traced.first_id, traced.end_id, group, spans);
    report_decomposition(traced.mean_us(), untraced_mean, inproc, iw, 0, 0,
                         dyn_share, out);

    // 4. unpack_words over the base rows the neighbour reads decode.
    std::vector<VertexId> rows;
    for (std::uint64_t id = traced.first_id; id < traced.end_id; ++id)
      if (ops[id].kind == QueryKind::kNeighbors) rows.push_back(ops[id].u);
    out.set("bits.unpack_mvals_s", unpack_rate_mvals(base_copy, rows, 3, &spans));
    report_builds(builds, kWarmupSetups, false, out);
  }

  out.set("mem.input_mb",
          mb(edges.size_bytes() + plain.bytes() + ops.size() * sizeof(Op) +
             hooks.visible.size() * 48 +
             3 * loop.completion_s.size() * sizeof(float)));
  out.set("peak_rss_mb", peak_rss_mb());
  if (opt.trace && !opt.trace_out.empty()) spans.write_chrome_trace(opt.trace_out);
}

}  // namespace pcqbench
