#include "shared.hpp"

#include <algorithm>

#include "algos/bfs.hpp"
#include "algos/components.hpp"
#include "algos/pagerank.hpp"
#include "bits/unpack.hpp"

namespace pcqbench {

PlainGraph::PlainGraph(std::span<const Edge> input, VertexId num_nodes)
    : edges(input.begin(), input.end()), offsets(num_nodes + std::size_t{1}, 0) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  for (const Edge& e : edges) ++offsets[e.u + std::size_t{1}];
  for (std::size_t u = 0; u < num_nodes; ++u) offsets[u + 1] += offsets[u];
}

pcq::csr::BitPackedCsr timed_csr_build(const pcq::graph::EdgeList& sorted,
                                       VertexId num_nodes, int threads,
                                       BuildSample& sample) {
  const auto t0 = Clock::now();
  pcq::csr::BitPackedCsr csr = pcq::csr::build_bitpacked_csr_from_sorted(
      sorted, num_nodes, threads, &sample.csr);
  sample.csr_wall_s = seconds_since(t0);
  return csr;
}

pcq::tcsr::DifferentialTcsr timed_tcsr_build(
    const pcq::graph::TemporalEdgeList& events, VertexId num_nodes,
    TimeFrame frames, int threads, BuildSample& sample) {
  const auto t0 = Clock::now();
  pcq::tcsr::DifferentialTcsr history = pcq::tcsr::DifferentialTcsr::build(
      events, num_nodes, frames, threads, &sample.tcsr);
  sample.tcsr_wall_s = seconds_since(t0);
  return history;
}

void report_builds(const std::vector<BuildSample>& all, std::size_t warmup,
                   bool with_tcsr, Result& out) {
  const std::span<const BuildSample> samples =
      std::span<const BuildSample>(all).subspan(std::min(warmup, all.size()));
  auto avg = [&](auto field) {
    std::vector<double> v;
    for (const BuildSample& s : samples) v.push_back(field(s));
    return mean(v);
  };
  const double wall = avg([](const BuildSample& s) { return s.csr_wall_s; });
  const double degree = avg([](const BuildSample& s) { return s.csr.degree; });
  const double scan = avg([](const BuildSample& s) { return s.csr.scan; });
  const double fill = avg([](const BuildSample& s) { return s.csr.fill; });
  const double pack = avg([](const BuildSample& s) { return s.csr.pack; });
  out.set("csr.build.wall_s", wall);
  out.set("csr.build.degree_s", degree);
  out.set("csr.build.scan_s", scan);
  out.set("csr.build.fill_s", fill);
  out.set("csr.build.pack_s", pack);
  out.set("csr.build.unattributed_s", wall - (degree + scan + fill + pack));
  out.notef("decomposition csr.build.wall_s=%.6f = degree %.6f + scan %.6f"
            " + fill %.6f + pack %.6f + unattributed %.6f (mean of %zu)",
            wall, degree, scan, fill, pack,
            wall - (degree + scan + fill + pack), samples.size());
  if (!with_tcsr) return;
  const double twall = avg([](const BuildSample& s) { return s.tcsr_wall_s; });
  const double split =
      avg([](const BuildSample& s) { return s.tcsr.frame_split; });
  const double frames =
      avg([](const BuildSample& s) { return s.tcsr.frame_build; });
  const double tpack = avg([](const BuildSample& s) { return s.tcsr.pack; });
  out.set("tcsr.build.wall_s", twall);
  out.set("tcsr.build.frame_split_s", split);
  out.set("tcsr.build.frame_build_s", frames);
  out.set("tcsr.build.pack_s", tpack);
  out.set("tcsr.build.unattributed_s", twall - (split + frames + tpack));
  out.notef("decomposition tcsr.build.wall_s=%.6f = frame_split %.6f + "
            "frame_build %.6f + pack %.6f + unattributed %.6f",
            twall, split, frames, tpack, twall - (split + frames + tpack));
}

AnalyticsTimes analytics_once(const pcq::csr::BitPackedCsr& g,
                              std::span<const VertexId> sources, int threads,
                              AnalyticsOutput* output) {
  AnalyticsTimes t;
  const double rss_before = peak_rss_mb();
  pcq::algos::PageRankOptions opts;
  opts.tolerance = 0;  // fixed work: exactly kPageRankIterations sweeps
  opts.max_iterations = kPageRankIterations;
  const auto t0 = Clock::now();
  pcq::algos::PageRankResult pr = pcq::algos::pagerank(g, opts, threads);
  const auto t1 = Clock::now();
  std::vector<std::vector<std::uint32_t>> dist;
  for (const VertexId s : sources) dist.push_back(pcq::algos::bfs(g, s, threads));
  const auto t2 = Clock::now();
  // CC takes the plain CSR, so its time includes decoding the packed one.
  std::vector<VertexId> labels =
      pcq::algos::connected_components_label_prop(g.to_csr(threads), threads);
  const auto t3 = Clock::now();
  t.pagerank_s = seconds_between(t0, t1);
  t.bfs_s = seconds_between(t1, t2);
  t.cc_s = seconds_between(t2, t3);
  t.total_s = seconds_between(t0, t3);
  t.pagerank_iters = pr.iterations;
  t.rss_growth_mb = peak_rss_mb() - rss_before;
  if (output != nullptr)
    *output = {std::move(pr.scores), std::move(dist), std::move(labels)};
  return t;
}

void report_analytics(const std::vector<AnalyticsTimes>& reps,
                      std::size_t warmup, Result& out) {
  std::vector<double> pr, bfs, cc, total;
  double growth = 0;
  for (const AnalyticsTimes& t : reps) {
    pr.push_back(t.pagerank_s);
    bfs.push_back(t.bfs_s);
    cc.push_back(t.cc_s);
    total.push_back(t.total_s);
    growth = std::max(growth, t.rss_growth_mb);
  }
  out.set("analytics_s", warm_median(total, warmup));
  out.note_reps("analytics_s", total);
  out.set("algos.pagerank_s", warm_median(pr, warmup));
  out.set("algos.bfs_s", warm_median(bfs, warmup));
  out.set("algos.cc_s", warm_median(cc, warmup));
  out.set("algos.pagerank_iters", reps.empty() ? 0 : reps.back().pagerank_iters);
  out.set("algos.rss_growth_mb", growth);
}

double unpack_rate_mvals(const pcq::csr::BitPackedCsr& g,
                         std::span<const VertexId> rows, int reps,
                         SpanLog* spans) {
  const pcq::bits::FixedWidthArray& columns = g.packed_columns();
  const std::uint64_t* words = columns.bits().words().data();
  const unsigned width = columns.width();
  // Row ranges are located before the clock starts, so only unpack_words
  // is timed.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;  // (bit, count)
  std::size_t max_count = 0;
  for (const VertexId u : rows) {
    const auto bounds = g.row_bounds(u);
    const auto count = static_cast<std::size_t>(bounds.end - bounds.begin);
    ranges.emplace_back(bounds.begin * width, count);
    max_count = std::max(max_count, count);
  }
  std::vector<VertexId> buffer(max_count + 1);
  std::uint64_t values = 0;
  double seconds = 0;
  std::uint64_t sink = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (const auto& [bit, count] : ranges) {
      pcq::bits::unpack_words(words, bit, width, count, buffer.data());
      values += count;
      sink += buffer[0];
    }
    const auto t1 = Clock::now();
    seconds += seconds_between(t0, t1);
    if (spans != nullptr)
      spans->record("bits.unpack_words", t0, t1, static_cast<std::uint64_t>(r));
  }
  keep_alive(sink);
  return seconds > 0 ? static_cast<double>(values) / seconds / 1e6 : 0;
}

}  // namespace pcqbench
