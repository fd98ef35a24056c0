// build_analytics: the paper's offline pipeline on the Pokec preset.
//
// Sort, then the packed CSR build (Alg. 1-4) and the TCSR build (Alg. 5),
// then PageRank, BFS and CC on the packed graph, then the batch kernels
// (Alg. 6/7 and their temporal forms) called directly on degree-biased
// sources for the measured window. svc, net and dyn are bypassed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "algos/bfs.hpp"
#include "algos/components.hpp"
#include "algos/pagerank.hpp"
#include "bench.hpp"
#include "check/validate.hpp"
#include "csr/query.hpp"
#include "graph/generators.hpp"
#include "shared.hpp"
#include "util/rng.hpp"

namespace pcqbench {
namespace {

constexpr double kPokecScale = 0.125;
constexpr std::size_t kEvents = std::size_t{1} << 21;
constexpr TimeFrame kFrames = 32;
constexpr int kSetups = 7;
constexpr std::size_t kWarmupSetups = 2;
constexpr std::size_t kSources = 4;
/// Queries per kind in one round of kernel calls; small enough that a
/// round's output never sets the peak RSS.
constexpr std::size_t kRoundQueries = 256;
constexpr std::size_t kRoundPool = 64;  ///< distinct rounds, cycled
constexpr std::size_t kChunkWarmup = 16;
/// One-thread PageRank agrees with the parallel one to rounding.
constexpr double kPageRankTolerance = 1e-12;
constexpr std::size_t kSlices = 20;

/// The inputs of one round of kernel calls.
struct Round {
  std::vector<VertexId> nodes;  ///< Alg. 6, degree-biased
  std::vector<Edge> edges;      ///< Alg. 7, degree-biased sources
  std::vector<pcq::tcsr::TemporalEdgeQuery> tedges;
  std::vector<pcq::tcsr::TemporalNodeQuery> tnodes;
};

std::vector<Round> make_rounds(const pcq::graph::EdgeList& sorted,
                               const pcq::graph::TemporalEdgeList& events,
                               VertexId n, std::uint64_t seed) {
  pcq::util::SplitMix64 rng(seed ^ 0x2545f4914f6cdd1dull);
  const auto list = sorted.edges();
  const auto ev = events.edges();
  std::vector<Round> rounds(kRoundPool);
  for (Round& r : rounds) {
    for (std::size_t i = 0; i < kRoundQueries; ++i) {
      // The source of a uniformly drawn edge: degree-biased, so rows are
      // long, as analytics frontiers see them.
      r.nodes.push_back(list[rng.next_below(list.size())].u);
      const Edge& e = list[rng.next_below(list.size())];
      r.edges.push_back(rng.next_bool(0.5)
                            ? e
                            : Edge{e.u, static_cast<VertexId>(rng.next_below(n))});
      const auto& te = ev[rng.next_below(ev.size())];
      const auto t = static_cast<TimeFrame>(rng.next_below(kFrames));
      r.tedges.push_back({te.u, rng.next_bool(0.5) ? te.v
                                                   : static_cast<VertexId>(
                                                         rng.next_below(n)),
                          t});
      r.tnodes.push_back({ev[rng.next_below(ev.size())].u, t});
    }
  }
  return rounds;
}

struct RoundTimes {
  double csr_us = 0;   ///< Alg. 6 + Alg. 7 calls
  double tcsr_us = 0;  ///< temporal calls
  double total_us = 0;
};

/// Output buffers reused from round to round, so after the first round
/// the Alg. 6/7 calls allocate nothing and the timed path holds no page
/// faults.
struct RoundBuffers {
  std::vector<std::vector<VertexId>> rows =
      std::vector<std::vector<VertexId>>(kRoundQueries);
  std::vector<std::uint8_t> hits = std::vector<std::uint8_t>(kRoundQueries);
};

/// Runs one round, checks every answer against the sequential plain CSR
/// and the scalar TCSR queries, and returns the number of wrong answers.
std::uint64_t run_round(const pcq::csr::BitPackedCsr& g,
                        const pcq::csr::CsrGraph& ref,
                        const pcq::tcsr::DifferentialTcsr& history,
                        const Round& r, int threads, SpanLog* spans,
                        std::uint64_t round_id, RoundBuffers& buf,
                        RoundTimes& times, std::uint64_t& decoded) {
  const auto t0 = Clock::now();
  pcq::csr::batch_neighbors_into(g, r.nodes, buf.rows, threads);
  const auto t1 = Clock::now();
  pcq::csr::batch_edge_existence_into(g, r.edges, buf.hits, threads,
                                      pcq::csr::RowSearch::kBinary);
  const auto t2 = Clock::now();
  const auto thits = history.batch_edge_active(r.tedges, threads);
  const auto t3 = Clock::now();
  const auto trows = history.batch_neighbors_at(r.tnodes, threads);
  const auto t4 = Clock::now();
  times.csr_us = us_between(t0, t2);
  times.tcsr_us = us_between(t2, t4);
  times.total_us = us_between(t0, t4);
  if (spans != nullptr) {
    spans->record("csr.batch_neighbors_into", t0, t1, round_id);
    spans->record("csr.batch_edge_existence_into", t1, t2, round_id);
    spans->record("tcsr.batch_edge_active", t2, t3, round_id);
    spans->record("tcsr.batch_neighbors_at", t3, t4, round_id);
  }

  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < r.nodes.size(); ++i) {
    const auto want = ref.neighbors(r.nodes[i]);
    const auto& got = buf.rows[i];
    decoded += got.size();
    if (!std::equal(want.begin(), want.end(), got.begin(), got.end())) ++wrong;
  }
  for (std::size_t i = 0; i < r.edges.size(); ++i)
    if ((buf.hits[i] != 0) != ref.has_edge(r.edges[i].u, r.edges[i].v)) ++wrong;
  for (std::size_t i = 0; i < r.tedges.size(); ++i) {
    const auto& q = r.tedges[i];
    if ((thits[i] != 0) != history.edge_active(q.u, q.v, q.t)) ++wrong;
  }
  for (std::size_t i = 0; i < r.tnodes.size(); ++i)
    if (trows[i] != history.neighbors_at(r.tnodes[i].u, r.tnodes[i].t)) ++wrong;
  return wrong;
}

/// The measured window: rounds of kernel calls, run in chunks between the
/// set-up repetitions. Round times are stamped on the window's own clock
/// (the chunks' durations added up), so the slices cut kernel time only.
struct Window {
  std::vector<float> round_us;
  std::vector<float> round_at_s;  ///< when each round ended
  double csr_us = 0, tcsr_us = 0, kernel_us = 0;
  std::uint64_t rounds = 0, wrong = 0, decoded = 0, warmup_rounds = 0;
  double clock_s = 0;
  RoundBuffers buf;
};

/// Runs rounds for `seconds` of wall time (answer checks included). Each
/// call starts with unmeasured rounds — a whole pass over the round pool
/// the first time, kChunkWarmup rounds after that — because a set-up and
/// an analytics repetition have just evicted the graph from the caches.
void run_rounds(const pcq::csr::BitPackedCsr& g, const pcq::csr::CsrGraph& ref,
                const pcq::tcsr::DifferentialTcsr& history,
                const std::vector<Round>& rounds, int threads, double seconds,
                SpanLog* spans, Window& w) {
  const std::size_t warmup = w.warmup_rounds == 0 ? rounds.size() : kChunkWarmup;
  for (std::size_t i = 0; i < warmup; ++i) {
    RoundTimes t;
    std::uint64_t decoded = 0;
    w.wrong += run_round(g, ref, history, rounds[i % rounds.size()], threads,
                         nullptr, 0, w.buf, t, decoded);
    ++w.warmup_rounds;
  }
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    RoundTimes t;
    const Round& r = rounds[w.rounds % rounds.size()];
    w.wrong += run_round(g, ref, history, r, threads, spans, w.rounds, w.buf,
                         t, w.decoded);
    w.round_us.push_back(static_cast<float>(t.total_us));
    w.round_at_s.push_back(static_cast<float>(w.clock_s + seconds_since(start)));
    w.csr_us += t.csr_us;
    w.tcsr_us += t.tcsr_us;
    w.kernel_us += t.total_us;
    ++w.rounds;
  }
  w.clock_s += seconds_since(start);
}

/// The parallel packed CSR equals the sequential build and both structures
/// pass the validators. Returns the sequential CSR, the reference the
/// kernel answers are checked against.
pcq::csr::CsrGraph check_builds(const pcq::csr::BitPackedCsr& g,
                                const pcq::tcsr::DifferentialTcsr& history,
                                const pcq::graph::EdgeList& sorted, VertexId n,
                                int threads, Result& out) {
  pcq::csr::CsrGraph ref = pcq::csr::build_csr_sequential(sorted, n);
  const pcq::csr::CsrGraph unpacked = g.to_csr(threads);
  const bool equal = std::ranges::equal(unpacked.offsets(), ref.offsets()) &&
                     std::ranges::equal(unpacked.columns(), ref.columns());
  out.check(equal, "packed CSR equals build_csr_sequential");
  pcq::check::ValidateOptions vopts;
  vopts.num_threads = threads;
  // The sequential parity reconstruction of every frame costs seconds at
  // this size; every temporal kernel answer is checked against the scalar
  // queries instead.
  vopts.parity_roundtrip = false;
  const auto csr_report = pcq::check::validate_csr(g, vopts);
  out.check(csr_report.ok(), "check::validate_csr " + csr_report.to_string());
  const auto tcsr_report = pcq::check::validate_tcsr(history, vopts);
  out.check(tcsr_report.ok(), "check::validate_tcsr " + tcsr_report.to_string());
  out.attempted += 3;
  out.failed += (equal ? 0 : 1) + (csr_report.ok() ? 0 : 1) +
                (tcsr_report.ok() ? 0 : 1);
  return ref;
}

/// BFS and CC equal the one-thread results exactly; PageRank is within
/// kPageRankTolerance of them.
void check_analytics(const pcq::csr::BitPackedCsr& g,
                     std::span<const VertexId> sources,
                     const AnalyticsOutput& got, Result& out) {
  pcq::algos::PageRankOptions opts;
  opts.tolerance = 0;
  opts.max_iterations = kPageRankIterations;
  const auto pr1 = pcq::algos::pagerank(g, opts, 1);
  double max_diff = 0;
  for (std::size_t v = 0; v < pr1.scores.size(); ++v)
    max_diff = std::max(max_diff, std::abs(pr1.scores[v] - got.pagerank[v]));
  bool bfs_equal = true;
  for (std::size_t i = 0; i < sources.size(); ++i)
    bfs_equal = bfs_equal && pcq::algos::bfs(g, sources[i], 1) == got.bfs[i];
  const bool cc_equal =
      pcq::algos::connected_components_label_prop(g.to_csr(1), 1) == got.cc;
  char what[96];
  std::snprintf(what, sizeof what,
                "PageRank within %.0e of one thread (max |diff| %.3e)",
                kPageRankTolerance, max_diff);
  out.check(max_diff <= kPageRankTolerance, what);
  out.check(bfs_equal, "BFS equals the one-thread result");
  out.check(cc_equal, "CC equals the one-thread result");
  out.attempted += 2 + sources.size();
  out.failed += (max_diff <= kPageRankTolerance ? 0 : 1) +
                (bfs_equal ? 0 : sources.size()) + (cc_equal ? 0 : 1);
}

}  // namespace

void run_build_analytics(const Options& opt, Result& out) {
  const int threads = kThreads;
  const auto& preset = pcq::graph::preset_by_name("Pokec");
  const auto n = static_cast<VertexId>(std::llround(preset.nodes * kPokecScale));
  const auto m = static_cast<std::size_t>(
      std::llround(static_cast<double>(preset.edges) * kPokecScale));
  // make_preset_graph's list before its sort, so the sort can be timed.
  const pcq::graph::EdgeList input = pcq::graph::rmat(
      n, m, preset.rmat_a, preset.rmat_b, preset.rmat_c, opt.seed, threads);
  const pcq::graph::TemporalEdgeList events =
      pcq::graph::evolving_graph(n, kEvents, kFrames, opt.seed + 1, threads);

  progress("inputs generated");
  // Set-up, repeated: sort + packed CSR build + TCSR build. The first
  // repetition's structures are kept for the checks, the analytics and the
  // kernels; the later ones are built and dropped. One analytics repetition
  // and one chunk of the kernel window follow each set-up, so the
  // repetitions spread over the run.
  pcq::graph::EdgeList sorted;
  std::unique_ptr<pcq::csr::BitPackedCsr> g;
  std::unique_ptr<pcq::tcsr::DifferentialTcsr> history;
  std::unique_ptr<pcq::csr::CsrGraph> ref;
  std::vector<VertexId> sources;
  std::vector<Round> rounds;
  std::vector<double> setup_s, build_s, sort_s;
  std::vector<BuildSample> builds;
  std::vector<AnalyticsTimes> analytics;
  AnalyticsOutput last;
  Window w;
  for (int rep = 0; rep < kSetups; ++rep) {
    pcq::graph::EdgeList list = input;  // the copy is not timed
    BuildSample sample;
    const auto t0 = Clock::now();
    list.sort(threads);
    const double sort = seconds_since(t0);
    auto csr = std::make_unique<pcq::csr::BitPackedCsr>(
        timed_csr_build(list, n, threads, sample));
    auto tcsr = std::make_unique<pcq::tcsr::DifferentialTcsr>(
        timed_tcsr_build(events, n, kFrames, threads, sample));
    setup_s.push_back(seconds_since(t0));
    sort_s.push_back(sort);
    build_s.push_back(sample.csr_wall_s + sample.tcsr_wall_s);
    builds.push_back(sample);
    if (rep == 0) {
      sorted = std::move(list);
      g = std::move(csr);
      history = std::move(tcsr);
      ref = std::make_unique<pcq::csr::CsrGraph>(
          check_builds(*g, *history, sorted, n, threads, out));
      sources = pick_sources(
          n, [&](VertexId u) { return ref->degree(u); }, opt.seed, kSources);
      rounds = make_rounds(sorted, events, n, opt.seed);
      progress("first set-up and build checks");
    }
    analytics.push_back(analytics_once(*g, sources, threads,
                                       rep == kSetups - 1 ? &last : nullptr));
    run_rounds(*g, *ref, *history, rounds, threads, opt.seconds / kSetups,
               nullptr, w);
  }
  out.set("setup_s", warm_median(setup_s, kWarmupSetups));
  out.set("build_s", warm_median(build_s, kWarmupSetups));
  out.note_reps("setup_s", setup_s);
  out.note_reps("build_s", build_s);
  report_analytics(analytics, kWarmupSetups, out);
  out.set("bytes_per_edge", static_cast<double>(g->size_bytes()) /
                                static_cast<double>(g->num_edges()));
  out.notef("input build_analytics Pokec scale=%g nodes=%u edges=%zu "
            "packed_mb=%.2f events=%zu frames=%u sort_s=%.4f",
            kPokecScale, n, m, static_cast<double>(g->size_bytes()) / (1 << 20),
            kEvents, kFrames, warm_median(sort_s, kWarmupSetups));
  check_analytics(*g, sources, last, out);

  const std::uint64_t queries_per_round = 4 * kRoundQueries;
  out.attempted += (w.rounds + w.warmup_rounds) * queries_per_round;
  out.failed += w.wrong;
  out.check(w.wrong == 0, "batch kernel answers equal the sequential CSR and "
                          "scalar TCSR answers (" + std::to_string(w.wrong) +
                          " wrong)");
  progress("kernel window");
  {
    // Medians over equal time slices of the window, so a burst of host
    // interference that hits a few slices does not move them. A slice's
    // rate is its queries over its kernel time.
    std::vector<double> rate, p50, p95;
    std::vector<std::vector<float>> lat(kSlices);
    const double len = w.clock_s / kSlices;
    for (std::size_t i = 0; i < w.round_us.size(); ++i)
      lat[std::min<std::size_t>(kSlices - 1, static_cast<std::size_t>(
                                                 w.round_at_s[i] / len))]
          .push_back(w.round_us[i]);
    for (auto& slice : lat) {
      if (slice.empty()) continue;
      double us = 0;
      for (const float v : slice) us += v;
      rate.push_back(static_cast<double>(slice.size() * queries_per_round) /
                     (us / 1e6));
      p50.push_back(percentile(slice, 0.50));
      p95.push_back(percentile(slice, 0.95));
    }
    out.set("qps", median(rate));
    out.set("p50_us", median(p50));
    out.set("p95_us", median(p95));
    out.note_reps("qps_per_slice", rate);
    out.note_reps("p95_us_per_slice", p95);
    std::vector<float> all = w.round_us;
    out.notef("kernels whole window: rounds=%llu queries_per_round=%llu "
              "p50_us=%.2f p95_us=%.2f",
              static_cast<unsigned long long>(w.rounds),
              static_cast<unsigned long long>(queries_per_round),
              percentile(all, 0.50), percentile(all, 0.95));
  }

  if (opt.trace) {
    SpanLog spans;
    Window tw;
    run_rounds(*g, *ref, *history, rounds, threads, opt.seconds, &spans, tw);
    out.attempted += (tw.rounds + tw.warmup_rounds) * queries_per_round;
    out.failed += tw.wrong;
    std::vector<float> lat = tw.round_us;
    const double mean_round = tw.kernel_us / static_cast<double>(tw.rounds);
    const double untraced_round = w.kernel_us / static_cast<double>(w.rounds);
    out.set("client.mean_us", mean_round);
    out.set("client.p99_us", percentile(lat, 0.99));
    out.set("client.samples", static_cast<double>(tw.rounds));
    // A round is its four kernel calls back to back; what their spans do
    // not cover is clock-read overhead, reported as 0 below a picosecond.
    double span_us = 0;
    for (const char* name :
         {"csr.batch_neighbors_into", "csr.batch_edge_existence_into",
          "tcsr.batch_edge_active", "tcsr.batch_neighbors_at"})
      span_us += spans.total_us(name);
    double unattributed = mean_round - span_us / static_cast<double>(tw.rounds);
    if (std::abs(unattributed) < 1e-6) unattributed = 0;
    out.set("unattributed_us", unattributed);
    const double overhead = (mean_round - untraced_round) / untraced_round * 100;
    out.set("trace.overhead_pct", overhead);
    out.set("csr.kernel.batch_us", tw.csr_us / static_cast<double>(tw.rounds));
    out.set("tcsr.kernel.batch_us", tw.tcsr_us / static_cast<double>(tw.rounds));
    out.set("csr.kernel.ns_per_query",
            tw.csr_us * 1e3 / static_cast<double>(tw.rounds * 2 * kRoundQueries));
    out.set("tcsr.kernel.ns_per_query",
            tw.tcsr_us * 1e3 / static_cast<double>(tw.rounds * 2 * kRoundQueries));
    out.set("csr.decoded_per_query",
            static_cast<double>(tw.decoded) /
                static_cast<double>(tw.rounds * kRoundQueries));
    out.notef("decomposition round_us=%.3f = csr.kernel %.3f + tcsr.kernel "
              "%.3f + unattributed %.3f (trace overhead %.2f%%)",
              mean_round, tw.csr_us / static_cast<double>(tw.rounds),
              tw.tcsr_us / static_cast<double>(tw.rounds), unattributed,
              overhead);
    std::vector<VertexId> rows;
    for (const Round& r : rounds) rows.insert(rows.end(), r.nodes.begin(), r.nodes.end());
    out.set("bits.unpack_mvals_s", unpack_rate_mvals(*g, rows, 5, &spans));
    out.set("tcsr.bytes_per_event", static_cast<double>(history->size_bytes()) /
                                        static_cast<double>(kEvents));
    report_builds(builds, kWarmupSetups, true, out);
    if (!opt.trace_out.empty()) spans.write_chrome_trace(opt.trace_out);
  }

  out.set("mem.input_mb",
          static_cast<double>(input.size_bytes() + sorted.size_bytes() +
                              events.size_bytes() + ref->size_bytes()) /
              (1 << 20));
  out.set("peak_rss_mb", peak_rss_mb());
}

}  // namespace pcqbench
