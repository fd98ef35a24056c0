// pcq_serve — drives the pcq::svc batch query service over a compressed
// graph: answering queries from stdin (one per line) until EOF, serving
// the pcq::net binary frame protocol over TCP (--listen), or acting as an
// interactive TCP client (--connect). Stdin modes print the service
// metrics block on exit; --listen prints the drain summary as well.
//
//   pcq_serve <g.csr> [--tcsr h.tcsr] [--dynamic] [--shards N] [--batch N]
//             [--kernel-threads N] [--demo N]
//             [--mmap] [--warm] [--validate] [--listen PORT]
//   pcq_serve --connect HOST:PORT
//
// --dynamic serves the graph through a dyn::HybridGraph (CPMA mutable tier
// in front of the loaded CSR): the add/del line commands and the
// kAddEdges/kRemoveEdges wire kinds mutate it live while queries keep
// flowing, and the STATS registry dump shows the dyn.* ingest counters.
//
// --listen starts the epoll TCP front-end (src/net) instead of reading
// stdin: it prints "listening on 127.0.0.1:<port>" (port 0 binds an
// ephemeral port and prints the real one) and serves frames until SIGINT/
// SIGTERM or a shutdown control frame, then drains gracefully — stops
// accepting, answers everything in flight, flushes write buffers — and
// prints "drain complete". --connect is the matching interactive client:
// it speaks the same line protocol on stdin but ships each query over TCP
// ("shutdown" sends the drain control frame, "quit" just disconnects).
//
// --admin PORT (with --listen) opens the HTTP scrape endpoint on a second
// port of the same epoll thread: /metrics (Prometheus text), /metrics.json
// (composite snapshot), /slow (the slow-query log), /trace (Chrome trace),
// /healthz, /buildinfo. --slow-us sets the tail-sampling threshold
// (default 10ms), --slow-cap the log bound; --report FILE appends one
// JSONL line per --report-interval-ms with counter rates and sampled
// gauges. tools/pcq_top renders a live dashboard from /metrics.json.
//
// --mmap serves straight from memory-mapped files: the packed arrays are
// borrowed views over the mapping (zero payload copies), so startup cost is
// independent of graph size and pages fault in lazily as queries touch
// them. --warm adds a parallel page-touch pass before serving (trades
// startup time for no first-touch latency spikes); --validate runs the full
// pcq::check scan on whatever was loaded before serving it (the
// map -> validate -> serve discipline for files of untrusted provenance).
//
// Line protocol (whitespace-separated):
//   degree U            degree of node U
//   n U                 neighbours of U (Alg. 6 through the batcher)
//   e U V               does edge (U, V) exist? (Alg. 7)
//   te U V T            was (U, V) active at frame T? (needs --tcsr)
//   tn U T              neighbours of U at frame T (needs --tcsr)
//   j U V T             earliest frame >= T reaching V from U (needs --tcsr)
//   add U V             make edge (U, V) visible (needs --dynamic)
//   del U V             make edge (U, V) invisible (needs --dynamic)
//   metrics             print the metrics snapshot
//   STATS               metrics snapshot + the pcq::obs registry dump
//   TRACE <file>        export the span flight-recorder as Chrome trace JSON
//
// The tracer runs from startup in flight-recorder mode (last ~4k spans per
// worker thread), so TRACE captures the recent past on demand.
//
// --demo N skips stdin and pushes N random mixed queries through the
// service instead — a smoke workload for scripts and the CLI test.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/validate.hpp"
#include "csr/serialize.hpp"
#include "dyn/hybrid.hpp"
#include "net/admin.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/reporter.hpp"
#include "obs/slowlog.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"
#include "tcsr/serialize.hpp"
#include "util/flags.hpp"
#include "util/format.hpp"
#include "util/io_error.hpp"
#include "util/rng.hpp"

namespace {

using namespace pcq;
using graph::VertexId;

void print_metrics(const svc::MetricsSnapshot& m) {
  std::printf("-- service metrics --\n");
  std::printf("submitted %s | completed %s | rejected %s | expired %s\n",
              util::with_commas(m.submitted).c_str(),
              util::with_commas(m.completed).c_str(),
              util::with_commas(m.rejected).c_str(),
              util::with_commas(m.expired).c_str());
  std::printf("throughput %.0f queries/s over %.2fs\n", m.qps,
              m.elapsed_seconds);
  std::printf("batches %s | size mean %.1f p50 %.0f p95 %.0f p99 %.0f\n",
              util::with_commas(m.batches).c_str(), m.mean_batch_size,
              m.batch_p50, m.batch_p95, m.batch_p99);
  if (m.mutations > 0)
    std::printf("mutations %s\n", util::with_commas(m.mutations).c_str());
  std::printf("latency us mean %.0f p50 %.0f p95 %.0f p99 %.0f\n",
              m.latency_mean_us, m.latency_p50_us, m.latency_p95_us,
              m.latency_p99_us);
  std::printf("queue wait us mean %.0f p50 %.0f p95 %.0f p99 %.0f\n",
              m.queue_wait_mean_us, m.queue_wait_p50_us, m.queue_wait_p95_us,
              m.queue_wait_p99_us);
}

/// One line-protocol query verb: the svc::QueryKind it names and which
/// operands follow U.
struct Verb {
  const char* op;
  svc::QueryKind kind;
  bool takes_v;
  bool takes_t;
};

constexpr Verb kVerbs[] = {
    {"degree", svc::QueryKind::kDegree, false, false},
    {"n", svc::QueryKind::kNeighbors, false, false},
    {"e", svc::QueryKind::kEdgeExists, true, false},
    {"te", svc::QueryKind::kTemporalEdge, true, true},
    {"tn", svc::QueryKind::kTemporalNeighbors, false, true},
    {"j", svc::QueryKind::kForemostArrival, true, true},
    {"add", svc::QueryKind::kAddEdges, true, false},
    {"del", svc::QueryKind::kRemoveEdges, true, false},
};

/// Parses the operands of query verb `op` from `in` into `w` (kind, u, v,
/// t; id and deadline untouched). False when `op` is no query verb or an
/// operand is missing — the caller answers "? unknown query".
bool parse_query(const std::string& op, std::istream& in,
                 net::WireRequest* w) {
  for (const Verb& verb : kVerbs) {
    if (op != verb.op) continue;
    w->kind = static_cast<std::uint8_t>(verb.kind);
    return static_cast<bool>(in >> w->u) && (!verb.takes_v || in >> w->v) &&
           (!verb.takes_t || in >> w->t);
  }
  return false;
}

void print_response(const net::WireRequest& req, const net::WireResponse& r) {
  switch (static_cast<svc::Status>(r.status)) {
    case svc::Status::kRejected: std::printf("rejected\n"); return;
    case svc::Status::kExpired: std::printf("expired\n"); return;
    case svc::Status::kInvalid: std::printf("invalid (out of range)\n"); return;
    case svc::Status::kUnsupported:
      std::printf("unsupported (needs --tcsr for temporal, --dynamic for "
                  "mutations)\n");
      return;
    case svc::Status::kOk: break;
  }
  switch (static_cast<svc::QueryKind>(req.kind)) {
    case svc::QueryKind::kDegree:
      std::printf("degree(%u) = %u\n", req.u, r.degree);
      break;
    case svc::QueryKind::kNeighbors:
    case svc::QueryKind::kTemporalNeighbors: {
      std::printf("neighbors(%u) [%zu]:", req.u, r.neighbors.size());
      for (std::size_t i = 0; i < r.neighbors.size() && i < 64; ++i)
        std::printf(" %u", r.neighbors[i]);
      if (r.neighbors.size() > 64) std::printf(" ...");
      std::printf("\n");
      break;
    }
    case svc::QueryKind::kEdgeExists:
    case svc::QueryKind::kTemporalEdge:
      std::printf("edge (%u, %u): %s\n", req.u, req.v,
                  r.exists ? "present" : "absent");
      break;
    case svc::QueryKind::kForemostArrival:
      if (r.exists)
        std::printf("journey %u -> %u: arrives frame %u\n", req.u, req.v,
                    r.arrival);
      else
        std::printf("journey %u -> %u: unreachable\n", req.u, req.v);
      break;
    case svc::QueryKind::kAddEdges:
      std::printf("add (%u, %u): %s\n", req.u, req.v,
                  r.exists ? "added" : "already present");
      break;
    case svc::QueryKind::kRemoveEdges:
      std::printf("del (%u, %u): %s\n", req.u, req.v,
                  r.exists ? "removed" : "already absent");
      break;
  }
}

int run_demo(svc::QueryService& service, const csr::BitPackedCsr& graph,
             const tcsr::DifferentialTcsr* history, std::size_t count) {
  util::SplitMix64 rng(2024);
  const VertexId n = graph.num_nodes();
  if (n == 0) {
    std::fprintf(stderr, "error: empty graph\n");
    return 2;
  }
  // Temporal demo queries must be drawn from the history's own node/frame
  // space — the TCSR is an independent (usually smaller) artifact, and
  // CSR-ranged u with t pinned to 0 made every temporal pick silently
  // answer kInvalid without ever exercising frames > 0.
  const bool temporal = history != nullptr && history->num_nodes() > 0 &&
                        history->num_frames() > 0;
  const VertexId tn = temporal ? history->num_nodes() : 0;
  const graph::TimeFrame tf = temporal ? history->num_frames() : 0;
  std::vector<std::future<svc::Response>> futures;
  futures.reserve(count);
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < count; ++i) {
    svc::Request req;
    const auto pick = rng.next_below(temporal ? 5 : 3);
    if (pick >= 3) {
      req.u = static_cast<VertexId>(rng.next_below(tn));
      req.v = static_cast<VertexId>(rng.next_below(tn));
      req.t = static_cast<graph::TimeFrame>(rng.next_below(tf));
    } else {
      req.u = static_cast<VertexId>(rng.next_below(n));
      req.v = static_cast<VertexId>(rng.next_below(n));
    }
    switch (pick) {
      case 0: req.kind = svc::QueryKind::kDegree; break;
      case 1: req.kind = svc::QueryKind::kNeighbors; break;
      case 2: req.kind = svc::QueryKind::kEdgeExists; break;
      case 3: req.kind = svc::QueryKind::kTemporalEdge; break;
      default: req.kind = svc::QueryKind::kTemporalNeighbors; break;
    }
    futures.push_back(service.submit(req));
    // A demo client is closed-loop-ish: cap outstanding work so the
    // bounded queue exercises batching, not rejection.
    if (futures.size() >= 1024) {
      for (auto& f : futures)
        if (f.get().status == svc::Status::kRejected) ++rejected;
      futures.clear();
    }
  }
  for (auto& f : futures)
    if (f.get().status == svc::Status::kRejected) ++rejected;
  print_metrics(service.metrics());
  std::printf("demo done: %s queries, %s rejected\n",
              util::with_commas(count).c_str(),
              util::with_commas(rejected).c_str());
  return 0;
}

int run_stdin(svc::QueryService& service) {
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string op;
    if (!(in >> op)) continue;
    if (op == "metrics") {
      print_metrics(service.metrics());
      continue;
    }
    if (op == "STATS") {
      print_metrics(service.metrics());
      std::printf("-- registry --\n");
      obs::MetricsRegistry::global().write_text(std::cout);
      std::cout.flush();
      continue;
    }
    if (op == "TRACE") {
      std::string path;
      if (!(in >> path)) {
        std::printf("? TRACE needs a file path\n");
        continue;
      }
      if (obs::write_chrome_trace_file(path))
        std::printf("wrote trace %s\n", path.c_str());
      else
        std::printf("? cannot write trace to %s\n", path.c_str());
      continue;
    }
    if (op == "quit") break;
    net::WireRequest w;
    if (!parse_query(op, in, &w)) {
      std::printf("? unknown query '%s'\n", line.c_str());
      continue;
    }
    const svc::Request req = net::to_service_request(w, svc::Clock::now());
    print_response(w,
                   net::from_service_response(w.id, service.submit(req).get()));
  }
  print_metrics(service.metrics());
  return 0;
}

// SIGINT/SIGTERM ask the TCP front-end for a graceful drain; request_stop
// is async-signal-safe (one eventfd write).
std::atomic<net::TcpServer*> g_server{nullptr};

extern "C" void handle_stop_signal(int) {
  net::TcpServer* server = g_server.load(std::memory_order_acquire);
  if (server != nullptr) server->request_stop();
}

int run_listen(svc::QueryService& service, const util::Flags& flags) {
  net::ServerOptions options;
  options.port = static_cast<std::uint16_t>(flags.get_int("listen", 0));
  options.admin_enabled = flags.has("admin");
  options.admin_port =
      static_cast<std::uint16_t>(flags.get_int("admin", 0));
  net::TcpServer server(service, options);

  // The reporter thread runs whenever we listen: its samplers keep the
  // sampled gauges (queue depths, connection stats, rusage) fresh for both
  // the JSONL series (--report) and admin scrapes (which also call
  // run_samplers directly, so a scrape is never stale).
  obs::Reporter reporter;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reporter.add_sampler([&service, &reg] {
    const std::vector<std::size_t> depths = service.queue_depths();
    std::size_t total = 0;
    std::size_t deepest = 0;
    for (const std::size_t d : depths) {
      total += d;
      deepest = std::max(deepest, d);
    }
    reg.gauge("svc.queue_depth").set(static_cast<std::int64_t>(total));
    reg.gauge("svc.queue_depth_max").set(static_cast<std::int64_t>(deepest));
  });
  const net::ServerStats& live = server.stats();
  reporter.add_sampler([&live, &reg] {
    const auto mirror = [&reg](const char* name, std::uint64_t v) {
      reg.gauge(name).set(static_cast<std::int64_t>(v));
    };
    reg.gauge("net.open_conns")
        .set(live.open_conns.load(std::memory_order_relaxed));
    mirror("net.accepted", live.accepted.load(std::memory_order_relaxed));
    mirror("net.frames_in", live.frames_in.load(std::memory_order_relaxed));
    mirror("net.frames_out", live.frames_out.load(std::memory_order_relaxed));
    mirror("net.bytes_in", live.bytes_in.load(std::memory_order_relaxed));
    mirror("net.bytes_out", live.bytes_out.load(std::memory_order_relaxed));
    mirror("net.rejected", live.rejected.load(std::memory_order_relaxed));
    mirror("net.protocol_errors",
           live.protocol_errors.load(std::memory_order_relaxed));
    mirror("net.admin_requests",
           live.admin_requests.load(std::memory_order_relaxed));
  });
  reporter.add_sampler(obs::sample_process_gauges);

  net::AdminContext admin_ctx;
  admin_ctx.service = &service;
  admin_ctx.server_stats = &server.stats();
  admin_ctx.refresh = [&reporter] { reporter.run_samplers(); };
  server.set_admin_handler(
      [admin_ctx](std::string_view method, std::string_view target) {
        return net::handle_admin_request(admin_ctx, method, target);
      });

  obs::ReporterOptions ropts;
  ropts.interval = std::chrono::milliseconds(
      flags.get_int("report-interval-ms", 1000));
  ropts.jsonl_path = flags.get("report", "");
  if (!reporter.start(ropts))
    std::fprintf(stderr, "warning: cannot open report file %s\n",
                 ropts.jsonl_path.c_str());

  g_server.store(&server, std::memory_order_release);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGPIPE, SIG_IGN);
  std::printf("listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  if (options.admin_enabled)
    std::printf("admin on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.admin_port()));
  std::fflush(stdout);
  server.run();
  g_server.store(nullptr, std::memory_order_release);
  reporter.stop();
  const net::ServerStats& s = server.stats();
  std::printf("drain complete: %s in flight answered, all buffers flushed\n",
              util::with_commas(
                  s.drained_in_flight.load(std::memory_order_relaxed))
                  .c_str());
  // Relaxed is enough: run() has returned, so these are quiescent counters
  // (and seq_cst, the load() default, bought nothing here anyway).
  std::printf(
      "connections %s | frames in %s | frames out %s | "
      "rejected %s | protocol errors %s\n",
      util::with_commas(s.accepted.load(std::memory_order_relaxed)).c_str(),
      util::with_commas(s.frames_in.load(std::memory_order_relaxed)).c_str(),
      util::with_commas(s.frames_out.load(std::memory_order_relaxed)).c_str(),
      util::with_commas(s.rejected.load(std::memory_order_relaxed)).c_str(),
      util::with_commas(s.protocol_errors.load(std::memory_order_relaxed))
          .c_str());
  print_metrics(service.metrics());
  return 0;
}

/// Interactive TCP client: the stdin line protocol, shipped as binary
/// frames. Lock-step (one request, one response) — a latency-measuring
/// pipelined client lives in bench_svc --mode net.
int run_connect(const std::string& target) {
  const util::HostPort remote = util::parse_host_port_or_exit(target);
  net::Client client;
  client.connect(remote.host, remote.port);
  std::uint64_t next_id = 1;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string op;
    if (!(in >> op)) continue;
    if (op == "quit") break;
    net::WireRequest w;
    w.id = next_id++;
    if (op == "shutdown") {
      w.kind = net::kShutdownKind;
      client.send_request(w);
      net::WireResponse resp;
      if (client.read_response(&resp) &&
          resp.status == static_cast<std::uint8_t>(svc::Status::kOk))
        std::printf("shutdown acknowledged, server draining\n");
      break;
    }
    if (!parse_query(op, in, &w)) {
      std::printf("? unknown query '%s'\n", line.c_str());
      continue;
    }
    client.send_request(w);
    net::WireResponse resp;
    if (!client.read_response(&resp)) {
      std::fprintf(stderr, "error: server closed the connection\n");
      return 3;
    }
    print_response(w, resp);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  pcq::util::Flags flags(
      argc, argv,
      {{"tcsr", "temporal history (.tcsr) to serve alongside the CSR"},
       {"dynamic", "serve through a CPMA mutable tier (enables add/del and "
                   "the wire mutation kinds)"},
       {"shards", "shared-nothing shards (default 1)"},
       {"batch", "max requests per dispatched batch (default 256)"},
       {"kernel-threads", "threads per batch-kernel call (default 1)"},
       {"demo", "run N random queries instead of reading stdin"},
       {"mmap", "serve from memory-mapped files (zero payload copies)"},
       {"warm", "with --mmap: parallel page-touch warmup before serving"},
       {"validate", "run the full pcq::check scan before serving"},
       {"listen", "serve the binary frame protocol on TCP port N (0 = "
                  "ephemeral, prints the bound port)"},
       {"admin", "with --listen: HTTP admin/scrape endpoint on port N (0 = "
                 "ephemeral, prints the bound port)"},
       {"slow-us", "slow-query capture threshold in microseconds "
                   "(default 10000; 0 disables)"},
       {"slow-cap", "slow-query log capacity (default 256)"},
       {"inject-delay-us", "debug: sleep N us inside every batch dispatch "
                           "(deterministic slow queries for tests)"},
       {"report", "append interval-delta JSONL telemetry to FILE"},
       {"report-interval-ms", "reporter tick interval (default 1000)"},
       {"connect", "act as an interactive TCP client against HOST:PORT"}});
  if (flags.has("connect")) {
    try {
      return run_connect(flags.get("connect", ""));
    } catch (const pcq::IoError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 3;
    }
  }
  const auto& pos = flags.positional();
  if (pos.empty()) {
    std::fprintf(stderr,
                 "usage: pcq_serve <g.csr> [flags] | pcq_serve --connect "
                 "HOST:PORT\n");
    return 2;
  }
  // Flight-recorder mode: record spans from startup so the TRACE command
  // can dump the recent past without any prior opt-in.
  pcq::obs::set_trace_enabled(true);
  try {
    using Clock = std::chrono::steady_clock;
    const bool use_mmap = flags.has("mmap");
    const bool temporal = flags.has("tcsr");

    // The mapped structs pair the borrowed-view structure with the mapping
    // that backs it; in buffered mode the same structs just own their
    // storage (mapped == false) so everything below is one code path.
    const auto t0 = Clock::now();
    pcq::csr::MappedCsr mc;
    if (use_mmap)
      mc = pcq::csr::map_bitpacked_csr(pos[0]);
    else
      mc.csr = pcq::csr::load_bitpacked_csr(pos[0]);
    pcq::tcsr::MappedTcsr mh;
    if (temporal) {
      if (use_mmap)
        mh = pcq::tcsr::map_tcsr(flags.get("tcsr", ""));
      else
        mh.tcsr = pcq::tcsr::load_tcsr(flags.get("tcsr", ""));
    }
    const auto load_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             Clock::now() - t0)
                             .count();
    const pcq::csr::BitPackedCsr& graph = mc.csr;
    const pcq::tcsr::DifferentialTcsr& history = mh.tcsr;
    std::printf("loaded in %lld us (%s%s)\n",
                static_cast<long long>(load_us),
                mc.mapped ? "mapped" : "buffered",
                use_mmap && !mc.mapped ? " — mmap fallback" : "");

    if (flags.has("warm")) {
      const auto w0 = Clock::now();
      const int warm_threads =
          static_cast<int>(flags.get_int("kernel-threads", 0));
      std::uint64_t touched = mc.file.touch_pages(warm_threads);
      touched += mh.file.touch_pages(warm_threads);
      const auto warm_us =
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                w0)
              .count();
      std::printf("warmed %s mapped bytes in %lld us (checksum %llu)\n",
                  pcq::util::with_commas(mc.file.size() + mh.file.size())
                      .c_str(),
                  static_cast<long long>(warm_us),
                  static_cast<unsigned long long>(touched));
    }

    if (flags.has("validate")) {
      pcq::check::ValidateOptions vopts;
      vopts.num_threads = 0;
      const auto report = pcq::check::validate_csr(graph, vopts);
      if (!report.ok()) {
        std::fprintf(stderr, "error: CSR failed validation:\n%s\n",
                     report.to_string().c_str());
        return 4;
      }
      if (temporal) {
        const auto treport = pcq::check::validate_tcsr(history, vopts);
        if (!treport.ok()) {
          std::fprintf(stderr, "error: TCSR failed validation:\n%s\n",
                       treport.to_string().c_str());
          return 4;
        }
      }
      std::printf("validation passed\n");
    }

    pcq::svc::ServiceConfig config;
    config.shards = static_cast<int>(flags.get_int("shards", 1));
    config.max_batch =
        static_cast<std::size_t>(flags.get_int("batch", 256));
    config.kernel_threads =
        static_cast<int>(flags.get_int("kernel-threads", 1));
    config.debug_kernel_delay =
        std::chrono::microseconds(flags.get_int("inject-delay-us", 0));
    // Tail sampling is on by default at 10ms — cheap enough to always run
    // (one relaxed load per completion) and the flight recorder is exactly
    // what you want populated when something was slow.
    pcq::obs::SlowLog::global().set_threshold_us(
        static_cast<std::uint64_t>(flags.get_int("slow-us", 10000)));
    pcq::obs::SlowLog::global().set_capacity(
        static_cast<std::size_t>(flags.get_int("slow-cap", 256)));
    // --dynamic wraps the loaded CSR in the CPMA-backed hybrid; the hybrid
    // copies the packed arrays (views stay borrowed under --mmap, and the
    // mapping outlives the service), so `graph` stays usable for the demo.
    std::optional<pcq::dyn::HybridGraph> hybrid;
    std::unique_ptr<pcq::svc::QueryService> service;
    if (flags.has("dynamic")) {
      hybrid.emplace(graph);
      service = std::make_unique<pcq::svc::QueryService>(
          *hybrid, temporal ? &history : nullptr, config);
    } else {
      service = std::make_unique<pcq::svc::QueryService>(
          graph, temporal ? &history : nullptr, config);
    }
    std::printf("serving %s nodes / %s edges on %d shard(s)%s%s\n",
                pcq::util::with_commas(graph.num_nodes()).c_str(),
                pcq::util::with_commas(graph.num_edges()).c_str(),
                service->shards(), temporal ? " + temporal history" : "",
                hybrid.has_value() ? " + dynamic tier" : "");

    if (flags.has("listen")) return run_listen(*service, flags);
    if (flags.has("demo"))
      return run_demo(*service, graph, temporal ? &history : nullptr,
                      static_cast<std::size_t>(flags.get_int("demo", 10000)));
    return run_stdin(*service);
  } catch (const pcq::IoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}
