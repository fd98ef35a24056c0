// Closing coverage gaps found in a final audit:
//   * foremost_arrival against an independent time-expanded BFS oracle,
//   * GapZetaGraph across every legal zeta parameter,
//   * K2Tree boundary ids at the padding edge,
//   * temporal window/batch query boundary cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>

#include "csr/builder.hpp"
#include "graph/generators.hpp"
#include "graph/k2tree.hpp"
#include "graph/webgraph.hpp"
#include "tcsr/journeys.hpp"
#include "tcsr/tcsr.hpp"
#include "util/rng.hpp"

namespace pcq {
namespace {

using graph::Edge;
using graph::EdgeList;
using graph::TemporalEdgeList;
using graph::TimeFrame;
using graph::VertexId;

/// Independent oracle for foremost journeys: explicit per-frame snapshot
/// adjacency + frame-by-frame closure, written without any pcq machinery
/// beyond edge_active.
std::vector<TimeFrame> oracle_arrival(const tcsr::DifferentialTcsr& tcsr,
                                      VertexId source, TimeFrame start) {
  const VertexId n = tcsr.num_nodes();
  const TimeFrame frames = tcsr.num_frames();
  std::vector<TimeFrame> arrival(n, tcsr::kNeverReached);
  arrival[source] = start;
  for (TimeFrame t = start; t < frames; ++t) {
    // Closure over the snapshot at t.
    bool changed = true;
    while (changed) {
      changed = false;
      for (VertexId u = 0; u < n; ++u) {
        if (arrival[u] == tcsr::kNeverReached || arrival[u] > t) continue;
        for (VertexId v = 0; v < n; ++v) {
          if (arrival[v] != tcsr::kNeverReached) continue;
          if (tcsr.edge_active(u, v, t)) {
            arrival[v] = t;
            changed = true;
          }
        }
      }
    }
  }
  return arrival;
}

TEST(ForemostArrival, MatchesBruteForceOracle) {
  const TemporalEdgeList evs = graph::evolving_graph(24, 260, 6, 91, 4);
  const auto tcsr = tcsr::DifferentialTcsr::build(evs, 24, 6, 4);
  for (VertexId source : {VertexId{0}, VertexId{7}, VertexId{23}}) {
    for (TimeFrame start : {TimeFrame{0}, TimeFrame{2}}) {
      EXPECT_EQ(tcsr::foremost_arrival(tcsr, source, start, 4),
                oracle_arrival(tcsr, source, start))
          << "source=" << source << " start=" << start;
    }
  }
}

TEST(GapZeta, AllLegalShrinkingParameters) {
  EdgeList g = graph::rmat(256, 5000, 0.57, 0.19, 0.19, 5, 4);
  g.sort(4);
  g.dedupe();
  const csr::CsrGraph ref = csr::build_csr_from_sorted(g, 256, 4);
  for (unsigned k = 1; k <= 16; ++k) {
    const graph::GapZetaGraph z =
        graph::GapZetaGraph::build_from_sorted(g, 256, k, 4);
    for (VertexId u = 0; u < 256; u += 19) {
      const auto row = z.neighbors(u);
      const auto expect = ref.neighbors(u);
      ASSERT_EQ(row.size(), expect.size()) << "k=" << k << " u=" << u;
      ASSERT_TRUE(std::equal(row.begin(), row.end(), expect.begin()))
          << "k=" << k;
    }
  }
}

TEST(K2Tree, BoundaryIdsAtPaddingEdge) {
  // n = 9 pads to s = 16 (k = 2): ids 8 and edges touching the last real
  // row/column sit exactly on the padding boundary.
  EdgeList g({{8, 0}, {0, 8}, {8, 8}, {7, 8}});
  const graph::K2Tree t = graph::K2Tree::build(g, 9, 2, 2);
  EXPECT_TRUE(t.has_edge(8, 0));
  EXPECT_TRUE(t.has_edge(0, 8));
  EXPECT_TRUE(t.has_edge(8, 8));
  EXPECT_TRUE(t.has_edge(7, 8));
  EXPECT_FALSE(t.has_edge(8, 7));
  EXPECT_EQ(t.neighbors(8), (std::vector<VertexId>{0, 8}));
  EXPECT_EQ(t.reverse_neighbors(8), (std::vector<VertexId>{0, 7, 8}));
}

TEST(TemporalWindows, DegenerateSingleFrameWindow) {
  TemporalEdgeList evs({{0, 1, 0}, {0, 1, 2}});
  evs.sort(2);
  const auto tcsr = tcsr::DifferentialTcsr::build(evs, 2, 4, 2);
  EXPECT_TRUE(tcsr.edge_active_in_window(0, 1, 1, 1));
  EXPECT_FALSE(tcsr.edge_active_in_window(0, 1, 2, 2));
  EXPECT_FALSE(tcsr.edge_active_in_window(0, 1, 3, 3));
}

TEST(TemporalBatches, EmptyQueryArrays) {
  const auto tcsr = tcsr::DifferentialTcsr::build(
      TemporalEdgeList({{0, 1, 0}}), 2, 1, 2);
  EXPECT_TRUE(tcsr.batch_edge_active({}, 4).empty());
  EXPECT_TRUE(tcsr.batch_neighbors_at({}, 4).empty());
}

}  // namespace
}  // namespace pcq
