#include "svc/service.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "dyn/hybrid.hpp"
#include "obs/metrics.hpp"
#include "obs/slowlog.hpp"
#include "obs/trace.hpp"
#include "par/parallel_for.hpp"
#include "par/worker_pool.hpp"
#include "tcsr/journeys.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pcq::svc {

using graph::VertexId;

namespace {

std::uint64_t to_us(std::chrono::nanoseconds ns) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(ns).count());
}

}  // namespace

QueryService::QueryService(const csr::BitPackedCsr& graph,
                           const tcsr::DifferentialTcsr* history,
                           ServiceConfig config)
    : QueryService(nullptr, dyn::HybridGraph::frozen_view(graph), history,
                   config) {}

QueryService::QueryService(dyn::HybridGraph& graph,
                           const tcsr::DifferentialTcsr* history,
                           ServiceConfig config)
    : QueryService(&graph, dyn::HybridGraph::View(), history, config) {}

QueryService::QueryService(dyn::HybridGraph* dynamic,
                           dyn::HybridGraph::View frozen,
                           const tcsr::DifferentialTcsr* history,
                           ServiceConfig config)
    : dynamic_(dynamic), frozen_(std::move(frozen)), history_(history),
      config_(config), started_(Clock::now()) {
  PCQ_CHECK(config_.shards >= 1);
  PCQ_CHECK(config_.max_batch >= 1);
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(config_.queue_capacity));
    shards_.back()->index = static_cast<std::uint32_t>(s);
  }
  pool_ = std::make_unique<par::WorkerPool>(config_.shards);
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    pool_->submit([this, raw] { shard_loop(*raw); });
  }
  // Last: a scrape may iterate shards_ as soon as the source is registered.
  source_.emplace(obs::MetricsRegistry::global(),
                  [this](obs::RegistrySnapshot& out) { add_series(out); });
}

QueryService::~QueryService() { stop(); }

void QueryService::stop() {
  // Only one caller wins the exchange; a concurrent second stop() (signal
  // handler path vs. destructor) returns immediately instead of racing on
  // the queue close / pool teardown below.
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& shard : shards_) shard->queue.close();
  // WorkerPool's destructor closes its job queue and joins; the shard
  // loops exit once their queues drain, so everything still queued is
  // answered before stop() returns.
  pool_.reset();
}

std::size_t QueryService::shard_of(VertexId u) const {
  return static_cast<std::size_t>(util::mix64(u)) % shards_.size();
}

bool QueryService::submit(const Request& request, Callback callback) {
  Shard& shard = *shards_[shard_of(request.u)];
  Pending pending{request, std::move(callback), Clock::now()};
  if (!shard.queue.try_push(std::move(pending))) {
    shard.metrics.rejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.metrics.submitted.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::future<Response> QueryService::submit(const Request& request) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  const bool admitted = submit(request, [promise](Response&& response) {
    promise->set_value(std::move(response));
  });
  if (!admitted) {
    Response rejected;
    rejected.status = Status::kRejected;
    promise->set_value(std::move(rejected));
  }
  return future;
}

void QueryService::complete(Shard& shard, Pending& pending,
                            Response&& response, Clock::time_point now) {
  // `now` is sampled once per kind-sweep: every request one kind's loop
  // answers became ready at the same instant (loop completion), so one
  // clock read serves the whole sweep instead of one per request.
  response.latency = now - pending.enqueued;
  const std::uint64_t lat_us = to_us(response.latency);
  shard.metrics.latency_us.record(lat_us);
  shard.metrics.completed.fetch_add(1, std::memory_order_relaxed);
  // Tail-based sampling: one relaxed load + predicted branch per request;
  // only requests already past the threshold (milliseconds late) take the
  // capture path below.
  const std::uint64_t threshold = obs::SlowLog::global().threshold_us();
  if (threshold != 0 && lat_us >= threshold) {
    obs::SlowQuery slow;
    slow.trace_id = pending.request.trace_id;
    slow.kind = static_cast<std::uint8_t>(pending.request.kind);
    slow.status = static_cast<std::uint8_t>(response.status);
    slow.u = pending.request.u;
    slow.v = pending.request.v;
    slow.t = pending.request.t;
    slow.total_us = lat_us;
    // Early completions (expired/invalid) finish at dispatch time, so the
    // phase split clamps instead of wrapping negative durations.
    slow.queue_us = shard.batch_dispatch > pending.enqueued
                        ? to_us(shard.batch_dispatch - pending.enqueued)
                        : lat_us;
    slow.service_us =
        now > shard.batch_dispatch ? to_us(now - shard.batch_dispatch) : 0;
    slow.batch_size = static_cast<std::uint32_t>(shard.batch_n);
    slow.shard = shard.index;
    slow.ts_ns = obs::trace_now_ns();
    obs::SlowLog::global().record(slow);
    // Full phase spans for the captured tail only: the Chrome trace shows
    // a queue bar and a service bar per slow request, keyed by trace id.
    if (obs::kTraceCompiledIn && obs::trace_enabled()) {
      const std::uint64_t t0 = obs::trace_time_ns(pending.enqueued);
      const std::uint64_t t1 = obs::trace_time_ns(shard.batch_dispatch);
      const std::uint64_t t2 = obs::trace_time_ns(now);
      if (t1 >= t0) obs::record_span("req.queue", t0, t1, slow.trace_id);
      if (t2 >= t1) obs::record_span("req.service", t1, t2, slow.trace_id);
    }
  }
  if (pending.callback) pending.callback(std::move(response));
}

void QueryService::shard_loop(Shard& shard) {
  std::vector<Pending> batch;
  batch.reserve(config_.max_batch);
  // Registry references are stable for the registry's lifetime, so the
  // mutex-guarded name lookup happens once per shard, not per batch.
  // "deadline" is the series' historical name: it counts the batches that
  // left below max_batch because the ring ran empty.
  obs::Counter& flush_size =
      obs::MetricsRegistry::global().counter("svc.flush.size");
  obs::Counter& flush_deadline =
      obs::MetricsRegistry::global().counter("svc.flush.deadline");
  for (;;) {
    batch.clear();
    const bool traced = obs::kTraceCompiledIn && obs::trace_enabled();
    const std::uint64_t wait_t0 = traced ? obs::trace_now_ns() : 0;
    // Natural batching: take whatever queued up while the last batch ran.
    const std::size_t n = shard.queue.pop_batch(batch, config_.max_batch);
    if (n == 0) return;  // closed and drained
    if (traced) obs::record_span("svc.dequeue", wait_t0, obs::trace_now_ns(), n);
    shard.metrics.batches.fetch_add(1, std::memory_order_relaxed);
    shard.metrics.batch_size.record(n);
    if (n >= config_.max_batch)
      flush_size.add(1);
    else
      flush_deadline.add(1);
    execute_batch(shard, batch);
  }
}

void QueryService::execute_batch(Shard& shard, std::vector<Pending>& batch) {
  PCQ_TRACE_SCOPE("svc.batch", batch.size());
  const auto now = Clock::now();
  // Per-batch slow-query context: complete() reads these on this same
  // thread to split total latency into queue vs. service phases.
  shard.batch_dispatch = now;
  shard.batch_n = batch.size();
  // ONE pinned View serves every read in the batch: the same (base, delta)
  // epoch whatever other shards mutate meanwhile. This shard's own
  // mutations run after the reads below, so within a batch reads see the
  // graph as it was before the batch's writes.
  const dyn::HybridGraph::View view =
      dynamic_ != nullptr ? dynamic_->view() : frozen_;
  const VertexId n = view.num_nodes();
  const graph::TimeFrame frames =
      history_ == nullptr ? 0 : history_->num_frames();

  // Partition indices by kind; requests that can be answered without the
  // graph (expired / invalid / unsupported) complete right here.
  std::vector<std::size_t> degree_ids, neighbor_ids, edge_ids;
  std::vector<std::size_t> tedge_ids, tneighbor_ids, journey_ids;
  std::vector<std::size_t> add_ids, remove_ids;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    const Request& r = p.request;
    // Queueing delay alone (enqueue -> batch dispatch); the latency
    // histogram minus this is service time.
    shard.metrics.queue_wait_us.record(to_us(now - p.enqueued));
    Response early;
    if (now > r.deadline) {
      early.status = Status::kExpired;
      shard.metrics.expired.fetch_add(1, std::memory_order_relaxed);
      complete(shard, p, std::move(early), now);
      continue;
    }
    const bool temporal = r.kind == QueryKind::kTemporalEdge ||
                          r.kind == QueryKind::kTemporalNeighbors ||
                          r.kind == QueryKind::kForemostArrival;
    if ((temporal && history_ == nullptr) ||
        (is_mutation_kind(r.kind) && dynamic_ == nullptr)) {
      early.status = Status::kUnsupported;
      complete(shard, p, std::move(early), now);
      continue;
    }
    // The CSR and TCSR are independent artifacts, so temporal kinds
    // validate against the history's node/frame space, not the CSR's.
    const VertexId limit = temporal ? history_->num_nodes() : n;
    const bool has_target = r.kind == QueryKind::kEdgeExists ||
                            r.kind == QueryKind::kTemporalEdge ||
                            r.kind == QueryKind::kForemostArrival ||
                            is_mutation_kind(r.kind);
    if (r.u >= limit || (temporal && r.t >= frames) ||
        (has_target && r.v >= limit)) {
      early.status = Status::kInvalid;
      complete(shard, p, std::move(early), now);
      continue;
    }
    switch (r.kind) {
      case QueryKind::kDegree: degree_ids.push_back(i); break;
      case QueryKind::kNeighbors: neighbor_ids.push_back(i); break;
      case QueryKind::kEdgeExists: edge_ids.push_back(i); break;
      case QueryKind::kTemporalEdge: tedge_ids.push_back(i); break;
      case QueryKind::kTemporalNeighbors: tneighbor_ids.push_back(i); break;
      case QueryKind::kForemostArrival: journey_ids.push_back(i); break;
      case QueryKind::kAddEdges: add_ids.push_back(i); break;
      case QueryKind::kRemoveEdges: remove_ids.push_back(i); break;
    }
  }

  const int kt = config_.kernel_threads;

  // Test/CI hook: injected kernel delay lands after dispatch, so it shows
  // up in the service phase of every request in the batch and
  // deterministically trips the slow-query threshold.
  if (config_.debug_kernel_delay.count() > 0)
    std::this_thread::sleep_for(config_.debug_kernel_delay);

  // Each read kind is one parallel loop over its requests, against the
  // pinned View or the TCSR, then one completion sweep stamped at loop end.
  const auto answer = [&](const std::vector<std::size_t>& ids,
                          [[maybe_unused]] const char* span, auto&& read) {
    if (ids.empty()) return;
    std::vector<Response> out(ids.size());
    {
      PCQ_TRACE_SCOPE(span, ids.size());
      par::parallel_for(ids.size(), kt, [&](std::size_t j) {
        read(batch[ids[j]].request, out[j]);
      });
    }
    const auto done = Clock::now();
    for (std::size_t j = 0; j < ids.size(); ++j)
      complete(shard, batch[ids[j]], std::move(out[j]), done);
  };
  answer(degree_ids, "svc.kernel.degree", [&](const Request& q, Response& r) {
    r.degree = view.degree(q.u);
  });
  // Algorithm 6: u's row decoded straight into its response.
  answer(neighbor_ids, "svc.kernel.neighbors",
         [&](const Request& q, Response& r) {
           r.neighbors = view.neighbors(q.u);
         });
  // Algorithm 7 with the paper's suggested binary search of the sorted row.
  answer(edge_ids, "svc.kernel.edge", [&](const Request& q, Response& r) {
    r.exists = view.has_edge(q.u, q.v);
  });

  if (!add_ids.empty()) execute_mutations(shard, batch, add_ids, true);
  if (!remove_ids.empty()) execute_mutations(shard, batch, remove_ids, false);
  if (!add_ids.empty() || !remove_ids.empty()) {
    // Opportunistic background compaction: at most one shard worker runs
    // it (maybe_compact's flag), readers keep their pinned snapshots, and
    // the other shards keep serving while this one folds the delta in.
    PCQ_TRACE_SCOPE("svc.maybe_compact", 0);
    dynamic_->maybe_compact(kt);
  }

  answer(tedge_ids, "svc.kernel.tedge", [&](const Request& q, Response& r) {
    r.exists = history_->edge_active(q.u, q.v, q.t);
  });
  answer(tneighbor_ids, "svc.kernel.tneighbors",
         [&](const Request& q, Response& r) {
           r.neighbors = history_->neighbors_at(q.u, q.t);
         });

  // Journey queries are whole-graph sweeps (foremost_arrival labels every
  // node), so they don't coalesce into an array kernel — each runs the
  // parallel frame replay on its own.
  for (const std::size_t i : journey_ids) {
    const Request& req = batch[i].request;
    PCQ_TRACE_SCOPE("svc.kernel.journey", 1);
    const auto arrivals =
        tcsr::foremost_arrival(*history_, req.u, req.t, kt);
    Response r;
    r.arrival = arrivals[req.v];
    r.exists = r.arrival != tcsr::kNeverReached;
    complete(shard, batch[i], std::move(r), Clock::now());
  }
}

void QueryService::execute_mutations(Shard& shard, std::vector<Pending>& batch,
                                     const std::vector<std::size_t>& ids,
                                     bool add) {
  // One HybridGraph call per polarity: the batch's mutations land in the
  // CPMA as a single batch-parallel apply (and a single published epoch).
  std::vector<graph::Edge> edges(ids.size());
  for (std::size_t j = 0; j < ids.size(); ++j)
    edges[j] = {batch[ids[j]].request.u, batch[ids[j]].request.v};
  std::vector<std::uint8_t> changed;
  {
    PCQ_TRACE_SCOPE("svc.kernel.mutate", ids.size());
    if (add)
      dynamic_->add_edges(edges, config_.kernel_threads, &changed);
    else
      dynamic_->remove_edges(edges, config_.kernel_threads, &changed);
  }
  shard.metrics.mutations.fetch_add(ids.size(), std::memory_order_relaxed);
  const auto done = Clock::now();
  for (std::size_t j = 0; j < ids.size(); ++j) {
    Response r;
    r.exists = changed[j] != 0;
    complete(shard, batch[ids[j]], std::move(r), done);
  }
}

std::vector<std::size_t> QueryService::queue_depths() const {
  std::vector<std::size_t> depths;
  depths.reserve(shards_.size());
  for (const auto& shard : shards_) depths.push_back(shard->queue.size());
  return depths;
}

void QueryService::add_series(obs::RegistrySnapshot& out) const {
  std::uint64_t& submitted = out.counters["svc.submitted"];
  std::uint64_t& completed = out.counters["svc.completed"];
  std::uint64_t& rejected = out.counters["svc.rejected"];
  std::uint64_t& expired = out.counters["svc.expired"];
  std::uint64_t& batches = out.counters["svc.batches"];
  std::uint64_t& mutations = out.counters["svc.mutations"];
  LogHistogram::Snapshot& latency = out.histograms["svc.latency_us"];
  LogHistogram::Snapshot& queue_wait = out.histograms["svc.queue_wait_us"];
  LogHistogram::Snapshot& sizes = out.histograms["svc.batch_size"];
  std::int64_t& depth = out.gauges["svc.queue_depth"];
  for (const auto& shard : shards_) {
    const ShardMetrics& m = shard->metrics;
    submitted += m.submitted.load(std::memory_order_relaxed);
    completed += m.completed.load(std::memory_order_relaxed);
    rejected += m.rejected.load(std::memory_order_relaxed);
    expired += m.expired.load(std::memory_order_relaxed);
    batches += m.batches.load(std::memory_order_relaxed);
    mutations += m.mutations.load(std::memory_order_relaxed);
    m.latency_us.accumulate(latency);
    m.queue_wait_us.accumulate(queue_wait);
    m.batch_size.accumulate(sizes);
    depth += static_cast<std::int64_t>(shard->queue.size());
  }
}

MetricsSnapshot QueryService::metrics() const {
  obs::RegistrySnapshot series;
  add_series(series);
  const auto& c = series.counters;
  MetricsSnapshot snap;
  snap.submitted = c.at("svc.submitted");
  snap.rejected = c.at("svc.rejected");
  snap.expired = c.at("svc.expired");
  snap.completed = c.at("svc.completed");
  snap.batches = c.at("svc.batches");
  snap.mutations = c.at("svc.mutations");
  const LogHistogram::Snapshot& latency = series.histograms.at("svc.latency_us");
  const LogHistogram::Snapshot& queue_wait =
      series.histograms.at("svc.queue_wait_us");
  const LogHistogram::Snapshot& sizes = series.histograms.at("svc.batch_size");
  snap.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - started_).count();
  snap.qps = snap.elapsed_seconds > 0
                 ? static_cast<double>(snap.completed) / snap.elapsed_seconds
                 : 0.0;
  snap.mean_batch_size = sizes.mean();
  snap.batch_p50 = sizes.quantile(0.50);
  snap.batch_p95 = sizes.quantile(0.95);
  snap.batch_p99 = sizes.quantile(0.99);
  snap.latency_mean_us = latency.mean();
  snap.latency_p50_us = latency.quantile(0.50);
  snap.latency_p95_us = latency.quantile(0.95);
  snap.latency_p99_us = latency.quantile(0.99);
  snap.queue_wait_mean_us = queue_wait.mean();
  snap.queue_wait_p50_us = queue_wait.quantile(0.50);
  snap.queue_wait_p95_us = queue_wait.quantile(0.95);
  snap.queue_wait_p99_us = queue_wait.quantile(0.99);
  return snap;
}

}  // namespace pcq::svc
