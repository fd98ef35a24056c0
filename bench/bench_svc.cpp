// Supplementary bench **S12**: load generators for the pcq::svc serving
// layer. Two client models drive the same QueryService:
//
//   closed loop — a fixed window of outstanding requests; a completion
//     immediately triggers the next submit. Measures peak sustainable
//     throughput without overload artefacts.
//   open loop — requests arrive on a Poisson process at a configured
//     offered rate, independent of completions (the honest serving-latency
//     methodology: queueing delay is part of the measured latency, and an
//     overloaded server rejects instead of silently slowing the client).
//
// The headline experiment (--mode compare, the default) runs the open-loop
// generator twice at the same offered rate and thread count: once with
// micro-batching disabled (max_batch = 1 — every request pays the full
// wake/dispatch cost) and once with the micro-batching config, whose
// batches take whatever queued up while the previous one ran. The ratio of
// sustained completed QPS is the batching win.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "csr/builder.hpp"
#include "csr/serialize.hpp"
#include "dyn/hybrid.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/slowlog.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"
#include "tcsr/serialize.hpp"
#include "tcsr/tcsr.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using pcq::graph::TimeFrame;
using pcq::graph::VertexId;
using pcq::svc::QueryKind;
using pcq::svc::Request;
using pcq::svc::Response;
using pcq::svc::ServiceConfig;
using pcq::svc::Status;

struct BenchConfig {
  VertexId nodes = 1 << 15;
  std::size_t edges = 500'000;
  std::size_t requests = 200'000;
  double rate = 0;  ///< offered QPS for open loop; 0 = as fast as possible
  std::size_t outstanding = 512;  ///< closed-loop window
  int shards = 1;
  std::size_t queue = 4096;  ///< per-shard queue bound
  std::size_t max_batch = 256;
  int kernel_threads = 1;
  TimeFrame frames = 0;  ///< > 0 builds a TCSR and mixes in temporal kinds
  std::uint64_t seed = 42;
  std::string mode = "compare";
  std::string mix = "mixed";  ///< mixed | degree
  std::size_t connections = 4;  ///< TCP connections for --mode net
  double write_pct = 0;  ///< --mode mixed: 0 = run both 5% and 50% presets
};

/// Deterministic workload. "mixed": 40% degree, 30% edge-exists, 30%
/// neighbour rows (10% temporal point queries carved out when a TCSR is
/// loaded). "degree": degree-only — the cheapest kernel, so the measured
/// per-request cost is almost entirely dispatch overhead (the quantity
/// micro-batching amortises).
std::vector<Request> make_workload(const BenchConfig& cfg) {
  pcq::util::SplitMix64 rng(cfg.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<Request> reqs(cfg.requests);
  const bool degree_only = cfg.mix == "degree";
  for (auto& r : reqs) {
    const double roll = rng.next_double();
    r.u = static_cast<VertexId>(rng.next_below(cfg.nodes));
    r.v = static_cast<VertexId>(rng.next_below(cfg.nodes));
    if (degree_only) {
      r.kind = QueryKind::kDegree;
    } else if (cfg.frames > 0 && roll < 0.10) {
      r.kind = QueryKind::kTemporalEdge;
      r.u = static_cast<VertexId>(rng.next_below(cfg.nodes / 4));
      r.v = static_cast<VertexId>(rng.next_below(cfg.nodes / 4));
      r.t = static_cast<TimeFrame>(rng.next_below(cfg.frames));
    } else if (roll < 0.40) {
      r.kind = QueryKind::kDegree;
    } else if (roll < 0.70) {
      r.kind = QueryKind::kEdgeExists;
    } else {
      r.kind = QueryKind::kNeighbors;
    }
  }
  return reqs;
}

/// Read/write mix for --mode mixed: mutations are add-biased (the ingest
/// shape: a stream that mostly grows, with some retractions) and reads
/// reuse the static mix so the two modes are comparable.
std::vector<Request> make_mixed_workload(const BenchConfig& cfg,
                                         double write_fraction) {
  pcq::util::SplitMix64 rng(cfg.seed ^ 0xd1b54a32d192ed03ull);
  std::vector<Request> reqs(cfg.requests);
  for (auto& r : reqs) {
    r.u = static_cast<VertexId>(rng.next_below(cfg.nodes));
    r.v = static_cast<VertexId>(rng.next_below(cfg.nodes));
    const double roll = rng.next_double();
    if (roll < write_fraction) {
      r.kind = rng.next_double() < 0.8 ? QueryKind::kAddEdges
                                       : QueryKind::kRemoveEdges;
    } else {
      const double read = (roll - write_fraction) / (1.0 - write_fraction);
      if (read < 0.40)
        r.kind = QueryKind::kDegree;
      else if (read < 0.70)
        r.kind = QueryKind::kEdgeExists;
      else
        r.kind = QueryKind::kNeighbors;
    }
  }
  return reqs;
}

struct RunResult {
  double elapsed_s = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double offered_qps = 0;    ///< open loop only (0 = unthrottled)
  double sustained_qps = 0;  ///< completed / elapsed
  /// Open loop only: completions after the submit loop finished, and their
  /// rate. During the drain the client thread only yields, so on a machine
  /// where client and service share cores this is the service-side
  /// throughput, free of the client's per-request cost.
  std::uint64_t drain_completed = 0;
  double drain_qps = 0;
  pcq::bench::LatencySummary client_latency_us;  ///< submit -> callback
  pcq::svc::MetricsSnapshot service;
  /// Admitted requests and sampled client latency, split by polarity
  /// (reads vs kAddEdges/kRemoveEdges mutations); --mode mixed prints them.
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  pcq::bench::LatencySummary read_latency_us;
  pcq::bench::LatencySummary write_latency_us;
};

void spin_until_done(const std::atomic<std::uint64_t>& done,
                     std::uint64_t target) {
  while (done.load(std::memory_order_acquire) < target)
    std::this_thread::yield();
}

/// Completion-side state shared by every request of a run. Callbacks
/// capture only {ctx, slot} (16 trivially-copyable bytes) so std::function
/// stores them inline — a heap allocation per request would otherwise
/// dominate the per-request cost and mask the dispatch overhead the
/// experiment isolates.
struct ClientCtx {
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::int64_t> in_flight{0};
  /// Client latency is sampled 1-in-kSampleStride: stamps[s] is the submit
  /// time of sampled request s, latencies_us[s] its completion latency.
  std::vector<pcq::svc::Clock::time_point> stamps;
  std::vector<double> latencies_us;
};

constexpr std::uint32_t kSampleStride = 32;
constexpr std::uint32_t kUnsampled = ~0u;

RunResult finish_run(pcq::svc::QueryService& service, ClientCtx& ctx,
                     RunResult result) {
  ctx.latencies_us.erase(
      std::remove_if(ctx.latencies_us.begin(), ctx.latencies_us.end(),
                     [](double v) { return v < 0; }),
      ctx.latencies_us.end());
  result.client_latency_us = pcq::bench::summarize_latencies(ctx.latencies_us);
  result.service = service.metrics();
  return result;
}

/// Open loop: submit request i at start + Σ exponential gaps, never waiting
/// for completions. rate == 0 degenerates to back-to-back submission, which
/// measures saturated throughput with the queue bound as the only brake.
/// Sampled latencies carry the request's polarity, so a mixed read/write
/// run reports the read tail separately from the mutation stream hitting
/// the same shards.
RunResult run_open_loop(pcq::svc::QueryService& service,
                        const std::vector<Request>& reqs, double rate,
                        std::uint64_t seed) {
  RunResult result;
  result.offered_qps = rate;
  pcq::util::SplitMix64 rng(seed);
  ClientCtx ctx;
  const std::size_t samples = reqs.size() / kSampleStride + 1;
  ctx.stamps.resize(samples);
  ctx.latencies_us.assign(samples, -1.0);
  std::vector<std::uint8_t> slot_is_write(samples, 0);
  std::uint64_t accepted = 0;

  const auto start = pcq::svc::Clock::now();
  auto next_arrival = start;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (rate > 0) {
      const double gap_s = -std::log(1.0 - rng.next_double()) / rate;
      next_arrival += std::chrono::nanoseconds(
          static_cast<std::int64_t>(gap_s * 1e9));
      while (pcq::svc::Clock::now() < next_arrival) {
        // Arrival gaps are sub-scheduler-quantum: yield so the service
        // worker (possibly sharing this core) can run, but never sleep.
        std::this_thread::yield();
      }
    }
    const bool is_write = pcq::svc::is_mutation_kind(reqs[i].kind);
    const std::uint32_t slot =
        i % kSampleStride == 0 ? static_cast<std::uint32_t>(i / kSampleStride)
                               : kUnsampled;
    if (slot != kUnsampled) {
      ctx.stamps[slot] = pcq::svc::Clock::now();
      slot_is_write[slot] = is_write ? 1 : 0;
    }
    ClientCtx* c = &ctx;
    const bool ok = service.submit(reqs[i], [c, slot](Response&&) {
      if (slot != kUnsampled)
        c->latencies_us[slot] = std::chrono::duration<double, std::micro>(
                                    pcq::svc::Clock::now() - c->stamps[slot])
                                    .count();
      c->done.fetch_add(1, std::memory_order_release);
    });
    if (ok) {
      ++accepted;
      if (is_write)
        ++result.writes_completed;
      else
        ++result.reads_completed;
    } else {
      ++result.rejected;
    }
  }
  const auto submit_end = pcq::svc::Clock::now();
  const std::uint64_t done_at_submit_end =
      ctx.done.load(std::memory_order_acquire);
  spin_until_done(ctx.done, accepted);
  const auto end = pcq::svc::Clock::now();
  result.elapsed_s = std::chrono::duration<double>(end - start).count();
  result.completed = accepted;
  result.sustained_qps =
      static_cast<double>(accepted) / std::max(result.elapsed_s, 1e-9);
  result.drain_completed = accepted - done_at_submit_end;
  const double drain_s =
      std::chrono::duration<double>(end - submit_end).count();
  result.drain_qps = drain_s > 1e-9
                         ? static_cast<double>(result.drain_completed) / drain_s
                         : 0.0;

  std::vector<double> reads, writes;
  for (std::size_t s = 0; s < samples; ++s) {
    if (ctx.latencies_us[s] < 0) continue;
    (slot_is_write[s] != 0 ? writes : reads).push_back(ctx.latencies_us[s]);
  }
  result.read_latency_us = pcq::bench::summarize_latencies(reads);
  result.write_latency_us = pcq::bench::summarize_latencies(writes);
  return finish_run(service, ctx, std::move(result));
}

/// Closed loop: keep `window` requests in flight; a completion immediately
/// funds the next submit. Rejections (possible when the queue bound is
/// smaller than the window) are retried after a yield, so every request
/// eventually completes.
RunResult run_closed_loop(pcq::svc::QueryService& service,
                          const std::vector<Request>& reqs,
                          std::size_t window) {
  RunResult result;
  ClientCtx ctx;
  const std::size_t samples = reqs.size() / kSampleStride + 1;
  ctx.stamps.resize(samples);
  ctx.latencies_us.assign(samples, -1.0);

  const auto start = pcq::svc::Clock::now();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    while (ctx.in_flight.load(std::memory_order_acquire) >=
           static_cast<std::int64_t>(window))
      std::this_thread::yield();
    const std::uint32_t slot = i % kSampleStride == 0
                                   ? static_cast<std::uint32_t>(i /
                                                                kSampleStride)
                                   : kUnsampled;
    if (slot != kUnsampled) ctx.stamps[slot] = pcq::svc::Clock::now();
    ctx.in_flight.fetch_add(1, std::memory_order_relaxed);
    ClientCtx* c = &ctx;
    const auto callback = [c, slot](Response&&) {
      if (slot != kUnsampled)
        c->latencies_us[slot] = std::chrono::duration<double, std::micro>(
                                    pcq::svc::Clock::now() - c->stamps[slot])
                                    .count();
      c->in_flight.fetch_sub(1, std::memory_order_release);
      c->done.fetch_add(1, std::memory_order_release);
    };
    while (!service.submit(reqs[i], callback)) {
      ++result.rejected;
      std::this_thread::yield();
    }
  }
  spin_until_done(ctx.done, reqs.size());
  result.elapsed_s = std::chrono::duration<double>(pcq::svc::Clock::now() -
                                                   start)
                         .count();
  result.completed = reqs.size();
  result.sustained_qps =
      static_cast<double>(result.completed) / std::max(result.elapsed_s, 1e-9);
  return finish_run(service, ctx, std::move(result));
}

/// Pre-loaded drain: measures pure service-side capacity, uncontaminated by
/// the client (which matters when client and service share cores). The
/// first request's callback blocks the shard worker until `release`; the
/// client fills the queue behind it (the queue bound must hold the whole
/// workload), then releases and times how fast the service drains the
/// backlog. Single-dispatch pays the full pop/partition/kernel-call cost
/// per request; micro-batching amortises it over full batches.
RunResult run_drain(pcq::svc::QueryService& service,
                    const std::vector<Request>& reqs) {
  RunResult result;
  ClientCtx ctx;
  std::atomic<bool> release{false};
  ClientCtx* c = &ctx;
  std::atomic<bool>* gate = &release;
  const bool ok = service.submit(reqs[0], [c, gate](Response&&) {
    // Runs on the shard worker: yield-spin so the submitting client (on a
    // shared core) can finish loading the queue.
    while (!gate->load(std::memory_order_acquire)) std::this_thread::yield();
    c->done.fetch_add(1, std::memory_order_release);
  });
  PCQ_CHECK(ok);
  for (std::size_t i = 1; i < reqs.size(); ++i) {
    while (!service.submit(reqs[i], [c](Response&&) {
      c->done.fetch_add(1, std::memory_order_release);
    })) {
      ++result.rejected;
      std::this_thread::yield();
    }
  }
  const auto start = pcq::svc::Clock::now();
  release.store(true, std::memory_order_release);
  spin_until_done(ctx.done, reqs.size());
  result.elapsed_s = std::chrono::duration<double>(pcq::svc::Clock::now() -
                                                   start)
                         .count();
  result.completed = reqs.size();
  result.sustained_qps =
      static_cast<double>(result.completed) / std::max(result.elapsed_s, 1e-9);
  result.drain_completed = result.completed;
  result.drain_qps = result.sustained_qps;
  result.service = service.metrics();
  return result;
}

/// Loopback calibration: the exact closed-loop client code path (stamping,
/// callback construction, counters) with the service replaced by an inline
/// completion. Measures the client-side cost per request so the service's
/// own cost can be read out of the end-to-end numbers on machines where
/// client and service share cores.
RunResult run_calibration(const std::vector<Request>& reqs) {
  RunResult result;
  ClientCtx ctx;
  const std::size_t samples = reqs.size() / kSampleStride + 1;
  ctx.stamps.resize(samples);
  ctx.latencies_us.assign(samples, -1.0);

  const auto start = pcq::svc::Clock::now();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::uint32_t slot = i % kSampleStride == 0
                                   ? static_cast<std::uint32_t>(i /
                                                                kSampleStride)
                                   : kUnsampled;
    if (slot != kUnsampled) ctx.stamps[slot] = pcq::svc::Clock::now();
    ctx.in_flight.fetch_add(1, std::memory_order_relaxed);
    ClientCtx* c = &ctx;
    pcq::svc::Callback callback = [c, slot](Response&&) {
      if (slot != kUnsampled)
        c->latencies_us[slot] = std::chrono::duration<double, std::micro>(
                                    pcq::svc::Clock::now() - c->stamps[slot])
                                    .count();
      c->in_flight.fetch_sub(1, std::memory_order_release);
      c->done.fetch_add(1, std::memory_order_release);
    };
    callback(Response{});
  }
  spin_until_done(ctx.done, reqs.size());
  result.elapsed_s = std::chrono::duration<double>(pcq::svc::Clock::now() -
                                                   start)
                         .count();
  result.completed = reqs.size();
  result.sustained_qps =
      static_cast<double>(result.completed) / std::max(result.elapsed_s, 1e-9);
  ctx.latencies_us.erase(
      std::remove_if(ctx.latencies_us.begin(), ctx.latencies_us.end(),
                     [](double v) { return v < 0; }),
      ctx.latencies_us.end());
  result.client_latency_us = pcq::bench::summarize_latencies(ctx.latencies_us);
  return result;
}

/// Open-loop TCP load over the pcq::net frame protocol: `connections`
/// sockets, each with a dedicated sender (flooding, or pacing its share of
/// the offered rate on a Poisson process) and the spawning thread as the
/// receiver. The server answers every admitted frame with exactly one
/// response — kOk or an explicit kRejected backpressure frame — so each
/// receiver reads until it has one response per request sent. Latency is
/// sampled 1-in-kSampleStride, stamped at send time and resolved when the
/// matching id comes back, so socket/queue delay is part of the number
/// (the honest open-loop methodology, now including the wire).
RunResult run_net_load(const std::string& host, std::uint16_t port,
                       const std::vector<Request>& reqs,
                       std::size_t connections, double rate,
                       std::uint64_t seed) {
  RunResult result;
  result.offered_qps = rate;
  connections = std::max<std::size_t>(1, connections);
  struct ConnResult {
    std::uint64_t ok = 0;
    std::uint64_t rejected = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::vector<double> latencies_us;
    std::vector<double> read_latencies_us;
    std::vector<double> write_latencies_us;
  };
  std::vector<ConnResult> per(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const auto start = pcq::svc::Clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t begin = reqs.size() * c / connections;
      const std::size_t end = reqs.size() * (c + 1) / connections;
      const std::size_t n = end - begin;
      if (n == 0) return;
      pcq::net::Client client;
      client.connect(host, port);
      // Send-time stamps, written by the sender thread and read by the
      // receiver once the matching id returns; atomics because the socket
      // round-trip orders the values but not the C++ accesses.
      std::vector<std::atomic<std::int64_t>> stamps_ns(n / kSampleStride + 1);
      std::thread sender([&] {
        pcq::util::SplitMix64 rng(seed ^ (0x5bf0'3635ull * (c + 1)));
        const double conn_rate = rate / static_cast<double>(connections);
        auto next_arrival = pcq::svc::Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
          if (conn_rate > 0) {
            const double gap_s =
                -std::log(1.0 - rng.next_double()) / conn_rate;
            next_arrival += std::chrono::nanoseconds(
                static_cast<std::int64_t>(gap_s * 1e9));
            while (pcq::svc::Clock::now() < next_arrival)
              std::this_thread::yield();
          }
          const Request& r = reqs[begin + i];
          pcq::net::WireRequest w;
          w.id = i;  // per-connection sequence number
          w.kind = static_cast<std::uint8_t>(r.kind);
          w.u = r.u;
          w.v = r.v;
          w.t = r.t;
          if (i % kSampleStride == 0)
            stamps_ns[i / kSampleStride].store(
                pcq::svc::Clock::now().time_since_epoch().count(),
                std::memory_order_relaxed);
          client.send_request(w);
        }
      });
      ConnResult& mine = per[c];
      for (std::size_t received = 0; received < n; ++received) {
        pcq::net::WireResponse resp;
        if (!client.read_response(&resp)) break;  // server went away
        // resp.id is the per-connection sequence number, so the request it
        // answers is reqs[begin + id] — that recovers the kind for the
        // read/write split without widening the wire format.
        const bool is_write =
            pcq::svc::is_mutation_kind(reqs[begin + resp.id].kind);
        if (resp.status == static_cast<std::uint8_t>(Status::kRejected)) {
          ++mine.rejected;
        } else {
          ++mine.ok;
          if (is_write)
            ++mine.writes;
          else
            ++mine.reads;
        }
        if (resp.id % kSampleStride == 0) {
          const std::int64_t sent_ns =
              stamps_ns[resp.id / kSampleStride].load(
                  std::memory_order_relaxed);
          const double us =
              static_cast<double>(
                  pcq::svc::Clock::now().time_since_epoch().count() -
                  sent_ns) /
              1e3;
          mine.latencies_us.push_back(us);
          (is_write ? mine.write_latencies_us : mine.read_latencies_us)
              .push_back(us);
        }
      }
      sender.join();
      client.close();
    });
  }
  for (auto& t : threads) t.join();
  result.elapsed_s =
      std::chrono::duration<double>(pcq::svc::Clock::now() - start).count();
  std::vector<double> latencies, read_lat, write_lat;
  for (const auto& p : per) {
    result.completed += p.ok;
    result.rejected += p.rejected;
    result.reads_completed += p.reads;
    result.writes_completed += p.writes;
    latencies.insert(latencies.end(), p.latencies_us.begin(),
                     p.latencies_us.end());
    read_lat.insert(read_lat.end(), p.read_latencies_us.begin(),
                    p.read_latencies_us.end());
    write_lat.insert(write_lat.end(), p.write_latencies_us.begin(),
                     p.write_latencies_us.end());
  }
  result.sustained_qps =
      static_cast<double>(result.completed) / std::max(result.elapsed_s, 1e-9);
  result.client_latency_us = pcq::bench::summarize_latencies(latencies);
  result.read_latency_us = pcq::bench::summarize_latencies(read_lat);
  result.write_latency_us = pcq::bench::summarize_latencies(write_lat);
  return result;
}

void print_run(const char* label, const RunResult& r) {
  std::printf("%-22s %9.0f qps  (%llu completed, %llu rejected, %.2fs)\n",
              label, r.sustained_qps,
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.rejected), r.elapsed_s);
  std::printf("  client latency us   p50 %8.1f  p95 %8.1f  p99 %8.1f  "
              "mean %8.1f  max %8.1f\n",
              r.client_latency_us.p50, r.client_latency_us.p95,
              r.client_latency_us.p99, r.client_latency_us.mean,
              r.client_latency_us.max);
  std::printf("  service latency us  p50 %8.1f  p95 %8.1f  p99 %8.1f\n",
              r.service.latency_p50_us, r.service.latency_p95_us,
              r.service.latency_p99_us);
  std::printf("  batch size          p50 %8.1f  p95 %8.1f  p99 %8.1f  "
              "mean %8.1f  (%llu batches)\n",
              r.service.batch_p50, r.service.batch_p95, r.service.batch_p99,
              r.service.mean_batch_size,
              static_cast<unsigned long long>(r.service.batches));
  if (r.drain_completed > 0)
    std::printf("  drain (service-side) %8.0f qps over %llu requests\n",
                r.drain_qps,
                static_cast<unsigned long long>(r.drain_completed));
}

void print_mixed_split(const RunResult& r) {
  std::printf("  reads  %9llu completed  latency us  p50 %8.1f  p95 %8.1f  "
              "p99 %8.1f\n",
              static_cast<unsigned long long>(r.reads_completed),
              r.read_latency_us.p50, r.read_latency_us.p95,
              r.read_latency_us.p99);
  std::printf("  writes %9llu completed  latency us  p50 %8.1f  p95 %8.1f  "
              "p99 %8.1f\n",
              static_cast<unsigned long long>(r.writes_completed),
              r.write_latency_us.p50, r.write_latency_us.p95,
              r.write_latency_us.p99);
}

/// Post-run outputs: the labeled runs as a consolidated JSON document
/// (--json FILE, with the resolved config so a result file is
/// self-describing) and the span flight-recorder as Chrome trace JSON
/// (--trace FILE). Returns the process exit code.
int emit_outputs(const pcq::util::Flags& flags, const BenchConfig& cfg,
                 const std::vector<std::pair<std::string, RunResult>>& runs) {
  const std::string json = flags.get("json", "");
  if (!json.empty()) {
    std::ofstream out(json, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write results to %s\n", json.c_str());
      return 3;
    }
    char buf[512];
    out << "{\"bench\":\"bench_svc\",";
    std::snprintf(
        buf, sizeof buf,
        "\"config\":{\"nodes\":%llu,\"edges\":%llu,\"requests\":%llu,"
        "\"rate\":%.1f,\"outstanding\":%llu,\"shards\":%d,\"queue\":%llu,"
        "\"max_batch\":%llu,\"kernel_threads\":%d,"
        "\"frames\":%llu,\"seed\":%llu,",
        static_cast<unsigned long long>(cfg.nodes),
        static_cast<unsigned long long>(cfg.edges),
        static_cast<unsigned long long>(cfg.requests), cfg.rate,
        static_cast<unsigned long long>(cfg.outstanding), cfg.shards,
        static_cast<unsigned long long>(cfg.queue),
        static_cast<unsigned long long>(cfg.max_batch), cfg.kernel_threads,
        static_cast<unsigned long long>(cfg.frames),
        static_cast<unsigned long long>(cfg.seed));
    out << buf;
    std::snprintf(
        buf, sizeof buf,
        "\"mode\":\"%s\",\"mix\":\"%s\",\"write_pct\":%.1f,"
        "\"connections\":%llu},",
        cfg.mode.c_str(), cfg.mix.c_str(), cfg.write_pct,
        static_cast<unsigned long long>(cfg.connections));
    out << buf;
    out << "\"runs\":[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& [label, r] = runs[i];
      std::snprintf(
          buf, sizeof buf,
          "%s\n{\"label\":\"%s\",\"elapsed_s\":%.6f,\"completed\":%llu,"
          "\"rejected\":%llu,\"offered_qps\":%.1f,\"sustained_qps\":%.1f,"
          "\"drain_completed\":%llu,\"drain_qps\":%.1f,",
          i == 0 ? "" : ",", label.c_str(), r.elapsed_s,
          static_cast<unsigned long long>(r.completed),
          static_cast<unsigned long long>(r.rejected), r.offered_qps,
          r.sustained_qps, static_cast<unsigned long long>(r.drain_completed),
          r.drain_qps);
      out << buf;
      std::snprintf(
          buf, sizeof buf,
          "\"client_latency_us\":{\"mean\":%.3f,\"p50\":%.3f,\"p95\":%.3f,"
          "\"p99\":%.3f,\"max\":%.3f},",
          r.client_latency_us.mean, r.client_latency_us.p50,
          r.client_latency_us.p95, r.client_latency_us.p99,
          r.client_latency_us.max);
      out << buf;
      std::snprintf(
          buf, sizeof buf,
          "\"reads\":%llu,\"writes\":%llu,"
          "\"read_latency_us\":{\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f},"
          "\"write_latency_us\":{\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f},",
          static_cast<unsigned long long>(r.reads_completed),
          static_cast<unsigned long long>(r.writes_completed),
          r.read_latency_us.p50, r.read_latency_us.p95, r.read_latency_us.p99,
          r.write_latency_us.p50, r.write_latency_us.p95,
          r.write_latency_us.p99);
      out << buf;
      std::snprintf(
          buf, sizeof buf,
          "\"service\":{\"batches\":%llu,\"mean_batch_size\":%.3f,"
          "\"latency_us\":{\"mean\":%.3f,\"p50\":%.3f,\"p95\":%.3f,"
          "\"p99\":%.3f},\"queue_wait_us\":{\"mean\":%.3f,\"p50\":%.3f,"
          "\"p95\":%.3f,\"p99\":%.3f}}}",
          static_cast<unsigned long long>(r.service.batches),
          r.service.mean_batch_size, r.service.latency_mean_us,
          r.service.latency_p50_us, r.service.latency_p95_us,
          r.service.latency_p99_us, r.service.queue_wait_mean_us,
          r.service.queue_wait_p50_us, r.service.queue_wait_p95_us,
          r.service.queue_wait_p99_us);
      out << buf;
    }
    out << "\n]}\n";
    if (!out) {
      std::fprintf(stderr, "error: cannot write results to %s\n", json.c_str());
      return 3;
    }
    std::fprintf(stderr, "[bench_svc] wrote results %s\n", json.c_str());
  }
  const std::string trace = flags.get("trace", "");
  if (!trace.empty()) {
    if (!pcq::obs::write_chrome_trace_file(trace)) {
      std::fprintf(stderr, "error: cannot write trace to %s\n", trace.c_str());
      return 3;
    }
    std::fprintf(stderr, "[bench_svc] wrote trace %s\n", trace.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  pcq::util::Flags flags(
      argc, argv,
      {
          {"nodes", "graph size (default 32768)"},
          {"edges", "R-MAT edge count (default 500000)"},
          {"requests", "requests per run (default 200000)"},
          {"rate", "open-loop offered QPS; 0 = unthrottled (default 0)"},
          {"outstanding", "closed-loop in-flight window (default 512)"},
          {"shards", "service shards (default 1)"},
          {"queue", "per-shard queue bound (default 4096)"},
          {"batch", "max_batch for the batched config (default 256)"},
          {"kernel-threads", "threads per batch-kernel call (default 1)"},
          {"frames", "TCSR frames; 0 = static-only workload (default 0)"},
          {"seed", "workload seed (default 42)"},
          {"mode",
           "compare | capacity | open | closed | calibrate | load | net |\n"
           "mixed (default compare); load = buffered vs mapped startup-cost\n"
           "table; net = open-loop TCP load over the pcq::net frame protocol;\n"
           "mixed = read/write load on the dynamic (HybridGraph) service"},
          {"mix", "mixed | degree (degree isolates dispatch overhead)"},
          {"write-pct",
           "mixed mode: mutation percentage 0-100; 0 = run both the 5%% and\n"
           "50%% presets (default 0)"},
          {"connections", "TCP connections for --mode net (default 4)"},
          {"connect",
           "net mode: drive an external pcq_serve --listen at HOST:PORT\n"
           "instead of an in-process server"},
          {"json", "write the run results as a JSON document to this file"},
          {"trace", "write Chrome trace JSON of the benched runs here"},
          {"slow-us", "slow-query capture threshold in microseconds for the\n"
                      "benched service (0 = sampling off, the default) — the\n"
                      "S17 telemetry-overhead experiment"},
      });
  if (flags.has("trace")) pcq::obs::set_trace_enabled(true);
  pcq::obs::SlowLog::global().set_threshold_us(
      static_cast<std::uint64_t>(flags.get_int("slow-us", 0)));
  BenchConfig cfg;
  cfg.nodes = static_cast<VertexId>(flags.get_int("nodes", cfg.nodes));
  cfg.edges = static_cast<std::size_t>(flags.get_int("edges", cfg.edges));
  cfg.requests =
      static_cast<std::size_t>(flags.get_int("requests", cfg.requests));
  cfg.rate = flags.get_double("rate", cfg.rate);
  cfg.outstanding =
      static_cast<std::size_t>(flags.get_int("outstanding", cfg.outstanding));
  cfg.shards = static_cast<int>(flags.get_int("shards", cfg.shards));
  cfg.queue = static_cast<std::size_t>(flags.get_int("queue", cfg.queue));
  cfg.max_batch =
      static_cast<std::size_t>(flags.get_int("batch", cfg.max_batch));
  cfg.kernel_threads =
      static_cast<int>(flags.get_int("kernel-threads", cfg.kernel_threads));
  cfg.frames = static_cast<TimeFrame>(flags.get_int("frames", cfg.frames));
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  cfg.mode = flags.get("mode", cfg.mode);
  cfg.mix = flags.get("mix", cfg.mix);
  cfg.connections = static_cast<std::size_t>(
      flags.get_int("connections", cfg.connections));
  cfg.write_pct = flags.get_double("write-pct", cfg.write_pct);

  std::fprintf(stderr, "[bench_svc] building R-MAT n=%u m=%zu...\n", cfg.nodes,
               cfg.edges);
  pcq::graph::EdgeList list = pcq::graph::rmat(cfg.nodes, cfg.edges, 0.57,
                                               0.19, 0.19, cfg.seed, 0);
  list.sort(0);
  list.dedupe();
  const pcq::csr::BitPackedCsr graph =
      pcq::csr::build_bitpacked_csr_from_sorted(list, cfg.nodes, 0);

  pcq::tcsr::DifferentialTcsr history;
  const pcq::tcsr::DifferentialTcsr* history_ptr = nullptr;
  if (cfg.frames > 0) {
    const auto events = pcq::graph::evolving_graph(
        cfg.nodes / 4, cfg.edges / 4, cfg.frames, cfg.seed + 1, 0);
    history = pcq::tcsr::DifferentialTcsr::build(events, cfg.nodes / 4,
                                                 cfg.frames, 0);
    history_ptr = &history;
  }

  if (cfg.mode == "load") {
    // Startup-cost table: buffered read vs zero-copy map vs map + parallel
    // page-touch warmup, over the artifacts this run just built. The mapped
    // load's cost is O(header), so it should stay flat as --edges grows
    // while the buffered load scales with the payload.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / ("pcq_bench_svc_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    const std::string csr_path = (dir / "g.csr").string();
    pcq::csr::save_bitpacked_csr(graph, csr_path);
    const std::string tcsr_path = (dir / "h.tcsr").string();
    if (history_ptr != nullptr) pcq::tcsr::save_tcsr(history, tcsr_path);

    auto best_of = [](int reps, auto&& fn) {
      double best = 1e300;
      for (int i = 0; i < reps; ++i) {
        pcq::util::Timer t;
        fn();
        best = std::min(best, t.seconds() * 1e6);
      }
      return best;
    };
    const double buffered_us = best_of(5, [&] {
      const auto g = pcq::csr::load_bitpacked_csr(csr_path);
      if (g.num_edges() != graph.num_edges()) std::abort();
    });
    const double mapped_us = best_of(5, [&] {
      const auto m = pcq::csr::map_bitpacked_csr(csr_path);
      if (m.csr.num_edges() != graph.num_edges()) std::abort();
    });
    const double warm_us = best_of(5, [&] {
      const auto m = pcq::csr::map_bitpacked_csr(csr_path);
      volatile std::uint64_t sink = m.file.touch_pages(0);
      (void)sink;
    });
    std::printf("csr payload %zu bytes\n", graph.size_bytes());
    std::printf("  load buffered     %10.1f us\n", buffered_us);
    std::printf("  load mapped       %10.1f us (%.1fx)\n", mapped_us,
                buffered_us / std::max(mapped_us, 1e-9));
    std::printf("  load mapped+warm  %10.1f us\n", warm_us);
    if (history_ptr != nullptr) {
      const double tbuf_us = best_of(5, [&] {
        const auto h = pcq::tcsr::load_tcsr(tcsr_path);
        if (h.num_frames() != history.num_frames()) std::abort();
      });
      const double tmap_us = best_of(5, [&] {
        const auto m = pcq::tcsr::map_tcsr(tcsr_path);
        if (m.tcsr.num_frames() != history.num_frames()) std::abort();
      });
      std::printf("tcsr payload %zu bytes (%u frames)\n", history.size_bytes(),
                  history.num_frames());
      std::printf("  load buffered     %10.1f us\n", tbuf_us);
      std::printf("  load mapped       %10.1f us (%.1fx)\n", tmap_us,
                  tbuf_us / std::max(tmap_us, 1e-9));
    }
    fs::remove_all(dir);
    return 0;
  }

  const std::vector<Request> reqs = make_workload(cfg);

  std::vector<std::pair<std::string, RunResult>> runs;
  auto report = [&](const char* label, const RunResult& r) {
    print_run(label, r);
    runs.emplace_back(label, r);
  };

  ServiceConfig batched;
  batched.shards = cfg.shards;
  batched.queue_capacity = cfg.queue;
  batched.max_batch = cfg.max_batch;
  batched.kernel_threads = cfg.kernel_threads;

  ServiceConfig single = batched;
  single.max_batch = 1;

  if (cfg.mode == "calibrate") {
    report("client loopback", run_calibration(reqs));
    return emit_outputs(flags, cfg, runs);
  }
  if (cfg.mode == "capacity") {
    // Pre-loaded drain for both configs: the queue must hold the whole
    // workload behind the stalled first request.
    ServiceConfig b = batched, s = single;
    b.queue_capacity = s.queue_capacity =
        std::max(cfg.queue, cfg.requests + 1);
    RunResult single_run, batched_run;
    {
      pcq::svc::QueryService service(graph, history_ptr, s);
      single_run = run_drain(service, reqs);
    }
    {
      pcq::svc::QueryService service(graph, history_ptr, b);
      batched_run = run_drain(service, reqs);
    }
    report("capacity single", single_run);
    report("capacity micro-batch", batched_run);
    std::printf("batching speedup (pre-loaded drain): %.2fx service-side "
                "QPS\n",
                batched_run.sustained_qps /
                    std::max(single_run.sustained_qps, 1e-9));
    return emit_outputs(flags, cfg, runs);
  }
  if (cfg.mode == "net") {
    // Saturation throughput, tail latency, and rejection behaviour over
    // real sockets. Default: an in-process TcpServer on an ephemeral port
    // (drained via the shutdown control frame afterwards, so the run also
    // asserts a clean drain); --connect drives an external
    // `pcq_serve --listen` instead and leaves it running.
    const std::string target = flags.get("connect", "");
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::optional<pcq::svc::QueryService> service;
    std::optional<pcq::net::TcpServer> server;
    std::thread server_thread;
    if (target.empty()) {
      service.emplace(graph, history_ptr, batched);
      server.emplace(*service, pcq::net::ServerOptions{});
      port = server->port();
      server_thread = std::thread([&] { server->run(); });
      std::fprintf(stderr, "[bench_svc] in-process server on port %u\n",
                   static_cast<unsigned>(port));
    } else {
      const pcq::util::HostPort remote =
          pcq::util::parse_host_port_or_exit(target);
      host = remote.host;
      port = remote.port;
    }
    RunResult net_run = run_net_load(host, port, reqs, cfg.connections,
                                     cfg.rate, cfg.seed + 11);
    if (service) net_run.service = service->metrics();
    report("net open-loop", net_run);
    std::printf("  %zu connections, %llu of %zu answered kOk (%.1f%% "
                "rejected under backpressure)\n",
                cfg.connections,
                static_cast<unsigned long long>(net_run.completed),
                reqs.size(),
                100.0 * static_cast<double>(net_run.rejected) /
                    static_cast<double>(std::max<std::size_t>(reqs.size(), 1)));
    if (server) {
      pcq::net::Client stopper;
      stopper.connect(host, port);
      pcq::net::WireRequest w;
      w.id = ~0ull;
      w.kind = pcq::net::kShutdownKind;
      stopper.send_request(w);
      pcq::net::WireResponse ack;
      PCQ_CHECK(stopper.read_response(&ack) &&
                ack.status == static_cast<std::uint8_t>(Status::kOk));
      // Clean drain: the server answers the ack, flushes, and closes —
      // the next read is a clean EOF, then run() returns.
      PCQ_CHECK(!stopper.read_response(&ack));
      server_thread.join();
      const pcq::net::ServerStats& s = server->stats();
      std::printf("  server drained: %llu conns, %llu frames in, %llu out, "
                  "%llu rejected, %llu protocol errors\n",
                  static_cast<unsigned long long>(s.accepted.load()),
                  static_cast<unsigned long long>(s.frames_in.load()),
                  static_cast<unsigned long long>(s.frames_out.load()),
                  static_cast<unsigned long long>(s.rejected.load()),
                  static_cast<unsigned long long>(s.protocol_errors.load()));
    }
    return emit_outputs(flags, cfg, runs);
  }
  if (cfg.mode == "mixed") {
    // Live-ingest serving: reads and kAddEdges/kRemoveEdges mutations hit
    // the same dynamic service. Default runs both canonical mixes; each one
    // gets a fresh HybridGraph copy of the base so the second mix is not
    // measured against the first one's mutated edge set. With --connect the
    // load drives an external `pcq_serve --dynamic --listen` over TCP
    // (whose graph does accumulate the mutations — that's the live-server
    // smoke CI runs).
    std::vector<double> fractions;
    if (cfg.write_pct > 0)
      fractions.push_back(cfg.write_pct / 100.0);
    else
      fractions = {0.05, 0.50};
    const std::string target = flags.get("connect", "");
    const pcq::util::HostPort remote =
        target.empty() ? pcq::util::HostPort{}
                       : pcq::util::parse_host_port_or_exit(target);
    for (const double wf : fractions) {
      const std::vector<Request> mixed = make_mixed_workload(cfg, wf);
      char label[64];
      std::snprintf(label, sizeof label, "mixed %.0f/%.0f r/w",
                    100.0 * (1.0 - wf), 100.0 * wf);
      RunResult r;
      if (!target.empty()) {
        r = run_net_load(remote.host, remote.port, mixed, cfg.connections,
                         cfg.rate, cfg.seed + 13);
      } else {
        pcq::dyn::HybridGraph hybrid(graph);
        pcq::svc::QueryService service(hybrid, history_ptr, batched);
        r = run_open_loop(service, mixed, cfg.rate, cfg.seed + 13);
        std::fprintf(stderr,
                     "[bench_svc] hybrid after %s: %zu edges, %zu delta "
                     "keys pending\n",
                     label, hybrid.num_edges(), hybrid.delta_keys());
      }
      print_run(label, r);
      print_mixed_split(r);
      runs.emplace_back(label, r);
    }
    return emit_outputs(flags, cfg, runs);
  }
  if (cfg.mode == "closed") {
    pcq::svc::QueryService service(graph, history_ptr, batched);
    report("closed-loop batched", run_closed_loop(service, reqs,
                                                  cfg.outstanding));
    return emit_outputs(flags, cfg, runs);
  }
  if (cfg.mode == "open") {
    pcq::svc::QueryService service(graph, history_ptr, batched);
    report("open-loop batched",
           run_open_loop(service, reqs, cfg.rate, cfg.seed + 7));
    return emit_outputs(flags, cfg, runs);
  }

  // compare: identical open-loop offered load, single dispatch vs
  // micro-batching, same shard/thread budget.
  RunResult single_run, batched_run;
  {
    pcq::svc::QueryService service(graph, history_ptr, single);
    single_run = run_open_loop(service, reqs, cfg.rate, cfg.seed + 7);
  }
  {
    pcq::svc::QueryService service(graph, history_ptr, batched);
    batched_run = run_open_loop(service, reqs, cfg.rate, cfg.seed + 7);
  }
  report("single dispatch", single_run);
  report("micro-batch", batched_run);
  const double ratio =
      batched_run.sustained_qps / std::max(single_run.sustained_qps, 1e-9);
  std::printf("batching speedup: %.2fx sustained QPS\n", ratio);
  if (single_run.drain_completed > 0 && batched_run.drain_completed > 0)
    std::printf("batching speedup (service side, drain phase): %.2fx\n",
                batched_run.drain_qps / std::max(single_run.drain_qps, 1e-9));
  return emit_outputs(flags, cfg, runs);
}
