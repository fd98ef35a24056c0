// Helpers the workloads share: timed builds, the analytics trio,
// the direct unpack replay and input generation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "bench.hpp"
#include "csr/bitpacked_csr.hpp"
#include "csr/builder.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "tcsr/tcsr.hpp"
#include "util/rng.hpp"

namespace pcqbench {

using pcq::graph::Edge;
using pcq::graph::TimeFrame;
using pcq::graph::VertexId;

/// R-MAT skew of the Pokec preset (Table II); every workload's graph uses it.
inline constexpr double kRmatA = 0.57, kRmatB = 0.19, kRmatC = 0.19;

inline std::uint64_t edge_key(VertexId u, VertexId v) {
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Source-sorted, duplicate-free copy of `edges` plus its row offsets: the
/// benchmark's own view of the input, made with the standard library so
/// request generation and answer checks do not depend on the code under
/// test.
struct PlainGraph {
  std::vector<Edge> edges;
  std::vector<std::uint64_t> offsets;  ///< n + 1 row starts

  PlainGraph(std::span<const Edge> input, VertexId num_nodes);
  [[nodiscard]] std::uint64_t degree(VertexId u) const {
    return offsets[u + 1] - offsets[u];
  }
  [[nodiscard]] std::size_t bytes() const {
    return edges.size() * sizeof(Edge) + offsets.size() * sizeof(std::uint64_t);
  }
};

/// Wall time and phase split of one packed CSR build and one TCSR build.
struct BuildSample {
  double csr_wall_s = 0;
  double tcsr_wall_s = 0;
  pcq::csr::CsrBuildTimings csr;
  pcq::tcsr::TcsrBuildTimings tcsr;
};

/// Packed CSR build through the paper pipeline, timed.
pcq::csr::BitPackedCsr timed_csr_build(const pcq::graph::EdgeList& sorted,
                                       VertexId num_nodes, int threads,
                                       BuildSample& sample);

/// Algorithm 5 TCSR build, timed.
pcq::tcsr::DifferentialTcsr timed_tcsr_build(
    const pcq::graph::TemporalEdgeList& events, VertexId num_nodes,
    TimeFrame frames, int threads, BuildSample& sample);

/// Per-layer build metrics: means over the samples after the first
/// `warmup`, so each phase list plus its unattributed remainder adds up to
/// the mean wall time.
void report_builds(const std::vector<BuildSample>& samples, std::size_t warmup,
                   bool with_tcsr, Result& out);

/// One repetition of the analytics trio on the packed graph: PageRank
/// (fixed iterations, tolerance 0), BFS from `sources` and label-propagation
/// CC. Workloads run one after each set-up, so the repetitions spread over
/// the run instead of sharing one burst of host interference.
struct AnalyticsTimes {
  double pagerank_s = 0;
  double bfs_s = 0;
  double cc_s = 0;
  double total_s = 0;
  int pagerank_iters = 0;
  double rss_growth_mb = 0;  ///< ru_maxrss growth across the calls
};
/// What the calls returned, for the checks.
struct AnalyticsOutput {
  std::vector<double> pagerank;
  std::vector<std::vector<std::uint32_t>> bfs;
  std::vector<VertexId> cc;
};
inline constexpr int kPageRankIterations = 10;
AnalyticsTimes analytics_once(const pcq::csr::BitPackedCsr& g,
                              std::span<const VertexId> sources, int threads,
                              AnalyticsOutput* output = nullptr);
/// analytics_s and the algos.* metrics: medians over the repetitions after
/// the first `warmup`.
void report_analytics(const std::vector<AnalyticsTimes>& reps,
                      std::size_t warmup, Result& out);

/// `count` distinct BFS sources with at least one out-edge, drawn from the
/// seed; `degree(u)` is the benchmark's own view of the graph.
template <typename Degree>
std::vector<VertexId> pick_sources(VertexId n, Degree&& degree,
                                   std::uint64_t seed, std::size_t count) {
  pcq::util::SplitMix64 rng(seed ^ 0x5bd1e995u);
  std::vector<VertexId> sources;
  while (sources.size() < count) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    if (degree(u) > 0 &&
        std::find(sources.begin(), sources.end(), u) == sources.end())
      sources.push_back(u);
  }
  return sources;
}

/// Decodes the packed rows of `rows` with bits::unpack_words at the
/// dispatched ISA, as the row decode does; returns million values per
/// second over `reps` passes.
double unpack_rate_mvals(const pcq::csr::BitPackedCsr& g,
                         std::span<const VertexId> rows, int reps,
                         SpanLog* spans);

}  // namespace pcqbench
