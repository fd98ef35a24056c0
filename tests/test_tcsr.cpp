#include "tcsr/tcsr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace pcq::tcsr {
namespace {

using graph::Edge;
using graph::TemporalEdge;
using graph::TemporalEdgeList;
using graph::TimeFrame;
using graph::VertexId;

/// Brute-force oracle: parity of (u, v) events at frames <= t.
class TemporalOracle {
 public:
  explicit TemporalOracle(const TemporalEdgeList& evs) {
    for (const TemporalEdge& e : evs.edges()) events_[{e.u, e.v}].insert_count(e.t);
  }

  bool edge_active(VertexId u, VertexId v, TimeFrame t) const {
    auto it = events_.find({u, v});
    if (it == events_.end()) return false;
    return it->second.parity_up_to(t);
  }

  std::set<VertexId> neighbors_at(VertexId u, TimeFrame t) const {
    std::set<VertexId> out;
    for (auto it = events_.lower_bound({u, 0});
         it != events_.end() && it->first.u == u; ++it)
      if (it->second.parity_up_to(t)) out.insert(it->first.v);
    return out;
  }

  /// Every v with at least one (u, v) event, ascending.
  std::vector<VertexId> targets(VertexId u) const {
    std::vector<VertexId> out;
    for (auto it = events_.lower_bound({u, 0});
         it != events_.end() && it->first.u == u; ++it)
      out.push_back(it->first.v);
    return out;
  }

 private:
  struct Counts {
    std::map<TimeFrame, int> per_frame;
    void insert_count(TimeFrame t) { ++per_frame[t]; }
    bool parity_up_to(TimeFrame t) const {
      int total = 0;
      for (const auto& [frame, count] : per_frame)
        if (frame <= t) total += count;
      return total % 2 == 1;
    }
  };
  std::map<Edge, Counts> events_;
};

/// The paper's Figure 4 storyline: a graph evolving over 4 frames with
/// edges added and deleted.
TemporalEdgeList figure4_events() {
  std::vector<TemporalEdge> evs{
      {0, 1, 0}, {1, 2, 0}, {2, 3, 0},  // T0: initial triangle path
      {0, 1, 1},                        // T1: delete (0,1)
      {0, 3, 2}, {1, 2, 2},             // T2: add (0,3), delete (1,2)
      {0, 1, 3},                        // T3: re-add (0,1)
  };
  TemporalEdgeList list(std::move(evs));
  list.sort(2);
  return list;
}

TEST(DifferentialTcsr, Figure4EdgeLifecycle) {
  const auto tcsr = DifferentialTcsr::build(figure4_events(), 4, 4, 4);
  // (0,1): added at T0, deleted at T1, re-added at T3.
  EXPECT_TRUE(tcsr.edge_active(0, 1, 0));
  EXPECT_FALSE(tcsr.edge_active(0, 1, 1));
  EXPECT_FALSE(tcsr.edge_active(0, 1, 2));
  EXPECT_TRUE(tcsr.edge_active(0, 1, 3));
  // (1,2): active T0-T1, deleted at T2.
  EXPECT_TRUE(tcsr.edge_active(1, 2, 1));
  EXPECT_FALSE(tcsr.edge_active(1, 2, 2));
  // (2,3): active throughout; (0,3): appears at T2.
  EXPECT_TRUE(tcsr.edge_active(2, 3, 3));
  EXPECT_FALSE(tcsr.edge_active(0, 3, 1));
  EXPECT_TRUE(tcsr.edge_active(0, 3, 3));
  // Never-seen edge.
  EXPECT_FALSE(tcsr.edge_active(3, 0, 3));
}

TEST(DifferentialTcsr, Figure4Snapshots) {
  const auto tcsr = DifferentialTcsr::build(figure4_events(), 4, 4, 4);
  const csr::CsrGraph t0 = tcsr.snapshot_at(0, 4);
  EXPECT_EQ(t0.num_edges(), 3u);
  const csr::CsrGraph t2 = tcsr.snapshot_at(2, 4);
  EXPECT_EQ(t2.num_edges(), 2u);  // (2,3) and (0,3)
  EXPECT_TRUE(t2.has_edge(2, 3));
  EXPECT_TRUE(t2.has_edge(0, 3));
}

TEST(DifferentialTcsr, EmptyEventList) {
  const auto tcsr = DifferentialTcsr::build(TemporalEdgeList{}, 0, 0, 4);
  EXPECT_EQ(tcsr.num_frames(), 0u);
  EXPECT_EQ(tcsr.size_bytes(), 0u);
}

TEST(DifferentialTcsr, RandomWorkloadMatchesOracle) {
  const TemporalEdgeList evs = graph::evolving_graph(60, 3000, 12, 17, 4);
  const TemporalOracle oracle(evs);
  const auto tcsr = DifferentialTcsr::build(evs, 60, 12, 4);

  pcq::util::SplitMix64 rng(29);
  for (int i = 0; i < 1500; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(60));
    const auto v = static_cast<VertexId>(rng.next_below(60));
    const auto t = static_cast<TimeFrame>(rng.next_below(12));
    EXPECT_EQ(tcsr.edge_active(u, v, t), oracle.edge_active(u, v, t))
        << u << "->" << v << " @ " << t;
  }
}

TEST(DifferentialTcsr, NeighborsAtMatchesOracle) {
  const TemporalEdgeList evs = graph::evolving_graph(40, 2000, 8, 19, 4);
  const TemporalOracle oracle(evs);
  const auto tcsr = DifferentialTcsr::build(evs, 40, 8, 4);
  for (VertexId u = 0; u < 40; ++u) {
    for (TimeFrame t = 0; t < 8; t += 3) {
      const auto got = tcsr.neighbors_at(u, t);
      const auto expect = oracle.neighbors_at(u, t);
      EXPECT_EQ(std::set<VertexId>(got.begin(), got.end()), expect)
          << "u=" << u << " t=" << t;
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    }
  }
}

TEST(DifferentialTcsr, BatchQueriesMatchScalar) {
  const TemporalEdgeList evs = graph::evolving_graph(50, 2000, 10, 23, 4);
  const auto tcsr = DifferentialTcsr::build(evs, 50, 10, 4);
  pcq::util::SplitMix64 rng(31);
  std::vector<TemporalEdgeQuery> queries(400);
  for (auto& q : queries)
    q = {static_cast<VertexId>(rng.next_below(50)),
         static_cast<VertexId>(rng.next_below(50)),
         static_cast<TimeFrame>(rng.next_below(10))};
  for (int p : {1, 2, 4, 8, 64}) {
    const auto result = tcsr.batch_edge_active(queries, p);
    ASSERT_EQ(result.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
      EXPECT_EQ(result[i] != 0,
                tcsr.edge_active(queries[i].u, queries[i].v, queries[i].t));
  }
}

/// Every temporal point kernel, scalar and batch at p in {1, 2, 4, 8, 64},
/// must equal the oracle for each of `sources` at every frame. Edge queries
/// pair a source with up to 16 of the targets its events touched, spread
/// over them, and with one random node.
void expect_kernels_match_oracle(const DifferentialTcsr& tcsr,
                                 const TemporalOracle& oracle,
                                 const std::vector<VertexId>& sources,
                                 std::uint64_t seed) {
  constexpr std::size_t kTargets = 16;
  pcq::util::SplitMix64 rng(seed);
  std::vector<TemporalNodeQuery> nodes;
  std::vector<std::vector<VertexId>> want_rows;
  std::vector<TemporalEdgeQuery> edges;
  for (const VertexId u : sources) {
    const std::vector<VertexId> targets = oracle.targets(u);
    const std::size_t stride = targets.size() / kTargets + 1;
    for (TimeFrame t = 0; t < tcsr.num_frames(); ++t) {
      nodes.push_back({u, t});
      const std::set<VertexId> active = oracle.neighbors_at(u, t);
      want_rows.emplace_back(active.begin(), active.end());
      for (std::size_t k = 0; k < targets.size(); k += stride)
        edges.push_back({u, targets[k], t});
      edges.push_back(
          {u, static_cast<VertexId>(rng.next_below(tcsr.num_nodes())), t});
    }
  }
  std::vector<std::uint8_t> want_hits;
  for (const auto& q : edges)
    want_hits.push_back(oracle.edge_active(q.u, q.v, q.t) ? 1 : 0);

  for (std::size_t i = 0; i < nodes.size(); ++i)
    ASSERT_EQ(tcsr.neighbors_at(nodes[i].u, nodes[i].t), want_rows[i])
        << "u=" << nodes[i].u << " t=" << nodes[i].t;
  for (std::size_t i = 0; i < edges.size(); ++i)
    ASSERT_EQ(tcsr.edge_active(edges[i].u, edges[i].v, edges[i].t),
              want_hits[i] != 0)
        << edges[i].u << "->" << edges[i].v << " @ " << edges[i].t;
  for (int p : {1, 2, 4, 8, 64}) {
    const auto rows = tcsr.batch_neighbors_at(nodes, p);
    ASSERT_EQ(rows.size(), nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i)
      ASSERT_EQ(rows[i], want_rows[i])
          << "p=" << p << " u=" << nodes[i].u << " t=" << nodes[i].t;
    const auto hits = tcsr.batch_edge_active(edges, p);
    ASSERT_EQ(hits.size(), edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i)
      ASSERT_EQ(hits[i] != 0, want_hits[i] != 0)
          << "p=" << p << " " << edges[i].u << "->" << edges[i].v << " @ "
          << edges[i].t;
  }
}

TEST(DifferentialTcsr, RmatHubRowsMatchOracleAtEveryFrame) {
  // 4096 nodes make the columns 12 bits wide, so neighbors_at's radix sort
  // takes two passes; R-MAT skew gives hubs whose rows, gathered over the
  // frames, pass its sort cutoff.
  constexpr VertexId kNodes = 4096;
  constexpr TimeFrame kFrames = 16;
  const TemporalEdgeList evs =
      graph::evolving_graph(kNodes, 60'000, kFrames, 53, 4);
  const TemporalOracle oracle(evs);
  const auto tcsr = DifferentialTcsr::build(evs, kNodes, kFrames, 4);
  ASSERT_EQ(tcsr.delta(0).column_bits(), 12u);

  // The 32 sources with the most events, then 32 random ones.
  std::vector<std::size_t> events_of(kNodes, 0);
  for (const TemporalEdge& e : evs.edges()) ++events_of[e.u];
  std::vector<VertexId> sources(kNodes);
  std::iota(sources.begin(), sources.end(), VertexId{0});
  std::partial_sort(sources.begin(), sources.begin() + 32, sources.end(),
                    [&](VertexId a, VertexId b) {
                      return events_of[a] > events_of[b];
                    });
  sources.resize(32);
  pcq::util::SplitMix64 rng(57);
  for (int i = 0; i < 32; ++i)
    sources.push_back(static_cast<VertexId>(rng.next_below(kNodes)));

  std::size_t hub_gathered = 0;
  for (TimeFrame t = 0; t < kFrames; ++t)
    hub_gathered += tcsr.delta(t).degree(sources[0]);
  EXPECT_GE(hub_gathered, 1000u);

  expect_kernels_match_oracle(tcsr, oracle, sources, 59);
}

TEST(DifferentialTcsr, LongRowKeepsOddCountsOnly) {
  // Row 0 gathers 207 entries over frames 0..2, enough for the radix path,
  // over 12-bit columns. Neighbour 4001 is in frames 0, 1 and 2 (active at
  // frame 2); 4002 is in frames 0 and 2, 4003 in frames 1 and 2 (both
  // inactive at frame 2).
  std::vector<TemporalEdge> evs;
  std::vector<VertexId> steady;
  for (VertexId v = 20; v <= 4000; v += 20) {
    evs.push_back({0, v, 0});
    steady.push_back(v);
  }
  for (TimeFrame t : {0u, 1u, 2u}) evs.push_back({0, 4001, t});
  for (TimeFrame t : {0u, 2u}) evs.push_back({0, 4002, t});
  for (TimeFrame t : {1u, 2u}) evs.push_back({0, 4003, t});
  TemporalEdgeList list(std::move(evs));
  list.sort(2);
  const auto tcsr = DifferentialTcsr::build(list, 4096, 3, 2);

  std::vector<VertexId> at1 = steady;
  at1.insert(at1.end(), {4002, 4003});
  std::vector<VertexId> at2 = steady;
  at2.push_back(4001);
  EXPECT_EQ(tcsr.neighbors_at(0, 1), at1);
  EXPECT_EQ(tcsr.neighbors_at(0, 2), at2);
  const std::vector<TemporalNodeQuery> queries{{0, 1}, {0, 2}};
  EXPECT_EQ(tcsr.batch_neighbors_at(queries, 2),
            (std::vector<std::vector<VertexId>>{at1, at2}));
  EXPECT_TRUE(tcsr.edge_active(0, 4001, 2));
  EXPECT_FALSE(tcsr.edge_active(0, 4002, 2));
  EXPECT_FALSE(tcsr.edge_active(0, 4003, 2));
  EXPECT_FALSE(tcsr.edge_active(0, 4001, 1));
}

TEST(DifferentialTcsr, LongHistoryCrossesLockstepGroups) {
  // edge_active advances its searches in groups of 64 frames; 130 frames
  // end in a partial group (frames 128-129).
  constexpr VertexId kNodes = 48;
  constexpr TimeFrame kFrames = 130;
  const TemporalEdgeList evs =
      graph::evolving_graph(kNodes, 20'000, kFrames, 61, 4);
  const TemporalOracle oracle(evs);
  const auto tcsr = DifferentialTcsr::build(evs, kNodes, kFrames, 4);
  expect_kernels_match_oracle(tcsr, oracle, {0, 1, 2, 5, 17, 29, 40, 47}, 67);
}

TEST(DifferentialTcsr, AllSnapshotsMatchSnapshotAt) {
  const TemporalEdgeList evs = graph::evolving_graph(40, 1500, 6, 37, 4);
  const auto tcsr = DifferentialTcsr::build(evs, 40, 6, 4);
  const auto snaps = tcsr.all_snapshots(4);
  ASSERT_EQ(snaps.size(), 6u);
  for (TimeFrame t = 0; t < 6; ++t) {
    const csr::CsrGraph snap = tcsr.snapshot_at(t, 4);
    EXPECT_EQ(snap.num_edges(), snaps[t].size()) << "t=" << t;
    for (const Edge& e : snaps[t].edges())
      EXPECT_TRUE(snap.has_edge(e.u, e.v));
  }
}

TEST(DifferentialTcsr, ThreadCountInvariance) {
  const TemporalEdgeList evs = graph::evolving_graph(80, 4000, 10, 41, 4);
  const auto ref = DifferentialTcsr::build(evs, 80, 10, 1);
  for (int p : {2, 4, 8, 64}) {
    const auto got = DifferentialTcsr::build(evs, 80, 10, p);
    ASSERT_EQ(got.num_frames(), ref.num_frames());
    EXPECT_EQ(got.size_bytes(), ref.size_bytes()) << "p=" << p;
    EXPECT_EQ(got.num_delta_edges(), ref.num_delta_edges()) << "p=" << p;
    for (TimeFrame t = 0; t < ref.num_frames(); ++t)
      EXPECT_TRUE(got.delta(t).packed_columns() == ref.delta(t).packed_columns());
  }
}

TEST(DifferentialTcsr, TimingsPopulated) {
  const TemporalEdgeList evs = graph::evolving_graph(100, 5000, 8, 43, 4);
  TcsrBuildTimings timings;
  DifferentialTcsr::build(evs, 100, 8, 4, &timings);
  EXPECT_GT(timings.total(), 0.0);
}

TEST(DifferentialTcsrDeathTest, UnsortedInputAborts) {
  TemporalEdgeList evs({{0, 1, 5}, {0, 1, 2}});  // time goes backwards
  EXPECT_DEATH(DifferentialTcsr::build(evs, 2, 6, 2), "sorted");
}

}  // namespace
}  // namespace pcq::tcsr
