// pcq::svc — in-process concurrent batch query service over the packed
// CSR/TCSR.
//
// Architecture (shared-nothing per shard):
//
//   clients ──try_push──► shard 0: [bounded MPMC queue] ──► worker 0 ─┐
//           ──try_push──► shard 1: [bounded MPMC queue] ──► worker 1 ─┤► pinned
//                ...                                                  │ View
//           ──try_push──► shard S: [bounded MPMC queue] ──► worker S ─┘
//
// Requests are routed to a shard by hash(u); each shard owns its queue,
// its metrics block and one persistent worker (a pcq::par::WorkerPool
// job), so shards never share mutable state — the only cross-thread
// traffic is the queue handoff and the immutable graph reads.
//
// One read path: every batch pins one dyn::HybridGraph::View and answers
// each point read kind with one parallel loop over its requests — degree,
// the paper's Algorithm 6 row decode and Algorithm 7 (as a packed binary
// search) against the View, the temporal kinds against the TCSR. A
// read-only service's View is the caller's CSR with an empty delta
// (HybridGraph::frozen_view); a live-ingest service pins the HybridGraph's
// current (base, delta) pair. Each worker pops whatever queued up while
// the previous batch ran, up to max_batch; no timer holds a batch open, so
// the batch size follows the backlog.
//
// Backpressure: the queue is bounded and try_push never blocks — a full
// shard rejects (Status::kRejected). A request whose deadline passes
// while queued is answered kExpired without touching the graph.
#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "csr/bitpacked_csr.hpp"
#include "dyn/hybrid.hpp"
#include "svc/metrics.hpp"
#include "svc/mpmc_queue.hpp"
#include "svc/request.hpp"
#include "tcsr/tcsr.hpp"

namespace pcq::par {
class WorkerPool;
}

namespace pcq::svc {

struct ServiceConfig {
  int shards = 1;                   ///< queues/workers (>= 1)
  std::size_t queue_capacity = 4096;///< per shard; full queue => kRejected
  std::size_t max_batch = 256;      ///< most requests one batch takes
  int kernel_threads = 1;           ///< threads per kind's loop/kernel call
  /// Test/CI hook: sleep this long after dispatching each query batch,
  /// before the kernels run, so the added time lands inside the measured
  /// service phase. Deterministically produces slow requests for the
  /// slow-query log and tail-sampling tests, and holds the worker busy so
  /// tests can keep requests queued behind it. 0 (the default) = off.
  std::chrono::microseconds debug_kernel_delay{0};
};

class QueryService {
 public:
  /// Read-only form: reads go through HybridGraph::frozen_view(graph),
  /// which borrows `graph` (it must outlive the service). `history` may be
  /// null (temporal queries then answer kUnsupported). Mutation kinds
  /// answer kUnsupported on this form.
  QueryService(const csr::BitPackedCsr& graph,
               const tcsr::DifferentialTcsr* history, ServiceConfig config);

  /// Live-ingest form: reads AND mutations flow through `graph`'s CPMA
  /// tier. Each batch pins graph.view() (snapshot-consistent against
  /// concurrent mutations from other shards); a batch's mutations
  /// coalesce into one add_edges/remove_edges call, after which the worker
  /// opportunistically runs the ratio-triggered compaction — readers stay
  /// wait-free throughout, only co-writers block on it.
  QueryService(dyn::HybridGraph& graph, const tcsr::DifferentialTcsr* history,
               ServiceConfig config);

  /// Stops and drains (see stop()).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Callback completion API. Returns true if the request was admitted
  /// (the callback will fire exactly once, on a worker thread); false if
  /// it was rejected by backpressure — the callback is NOT invoked, so
  /// open-loop clients can count rejections synchronously.
  bool submit(const Request& request, Callback callback);

  /// Future completion API. Rejected requests complete the future
  /// immediately with Status::kRejected.
  [[nodiscard]] std::future<Response> submit(const Request& request);

  /// Closes all queues, answers everything still queued, joins workers.
  /// Idempotent; called by the destructor.
  void stop();

  /// Aggregated counters + latency/batch-size percentiles across shards.
  [[nodiscard]] MetricsSnapshot metrics() const;

  /// Instantaneous queued-request count per shard (telemetry gauges; each
  /// read takes that shard's queue mutex briefly).
  [[nodiscard]] std::vector<std::size_t> queue_depths() const;

  [[nodiscard]] int shards() const { return static_cast<int>(shards_.size()); }

 private:
  /// Both public forms delegate here; exactly one of `dynamic` and
  /// `frozen` is set.
  QueryService(dyn::HybridGraph* dynamic, dyn::HybridGraph::View frozen,
               const tcsr::DifferentialTcsr* history, ServiceConfig config);

  struct Pending {
    Request request;
    Callback callback;
    Clock::time_point enqueued;
  };

  struct Shard {
    explicit Shard(std::size_t capacity) : queue(capacity) {}
    BoundedMpmcQueue<Pending> queue;
    ShardMetrics metrics;
    /// Per-batch context for slow-query capture; written only by the
    /// shard's own worker at dispatch, read by complete() on that same
    /// thread — no synchronisation needed.
    Clock::time_point batch_dispatch{};
    std::size_t batch_n = 0;
    std::uint32_t index = 0;
  };

  std::size_t shard_of(graph::VertexId u) const;
  void shard_loop(Shard& shard);
  void execute_batch(Shard& shard, std::vector<Pending>& batch);
  void execute_mutations(Shard& shard, std::vector<Pending>& batch,
                         const std::vector<std::size_t>& ids, bool add);
  void complete(Shard& shard, Pending& pending, Response&& response,
                Clock::time_point now);

  /// The live-ingest graph (null on the read-only form, whose mutations
  /// answer kUnsupported) and the read-only form's View. Every batch pins
  /// `dynamic_ ? dynamic_->view() : frozen_` and reads only through it.
  dyn::HybridGraph* dynamic_ = nullptr;
  dyn::HybridGraph::View frozen_;
  const tcsr::DifferentialTcsr* history_;
  ServiceConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<par::WorkerPool> pool_;
  Clock::time_point started_;
  /// exchange() makes stop() idempotent under concurrent callers (signal
  /// path vs. destructor) — a plain bool read-modify-write here is a race.
  std::atomic<bool> stopped_{false};
};

}  // namespace pcq::svc
