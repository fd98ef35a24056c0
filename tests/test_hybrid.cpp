// pcq::dyn::HybridGraph — differential tests against a std::set oracle,
// across mutation batches AND compactions; plus snapshot isolation and
// concurrent readers racing writers/compaction (TSan).
#include "dyn/hybrid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "csr/builder.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace pcq::dyn {
namespace {

using graph::Edge;
using graph::VertexId;
using pcq::util::SplitMix64;

constexpr VertexId kNodes = 512;

csr::BitPackedCsr make_base(std::uint64_t seed, std::size_t edges = 10'000) {
  graph::EdgeList list =
      graph::rmat(kNodes, edges, 0.57, 0.19, 0.19, seed, 2);
  list.sort(2);
  list.dedupe();
  return csr::build_bitpacked_csr_from_sorted(list, kNodes, 2);
}

std::set<std::pair<VertexId, VertexId>> edge_set(const csr::BitPackedCsr& g) {
  std::set<std::pair<VertexId, VertexId>> out;
  for (VertexId u = 0; u < g.num_nodes(); ++u)
    for (VertexId v : g.neighbors(u)) out.insert({u, v});
  return out;
}

/// Full-surface comparison: has_edge, degree, neighbors, num_edges.
void expect_matches(const HybridGraph& hybrid,
                    const std::set<std::pair<VertexId, VertexId>>& oracle) {
  const HybridGraph::View view = hybrid.view();
  ASSERT_TRUE(view.valid());
  ASSERT_TRUE(view.delta().check_invariants());
  ASSERT_EQ(view.num_edges(), oracle.size());
  for (VertexId u = 0; u < kNodes; ++u) {
    std::vector<VertexId> expect;
    for (auto it = oracle.lower_bound({u, 0});
         it != oracle.end() && it->first == u; ++it)
      expect.push_back(it->second);
    ASSERT_EQ(view.neighbors(u), expect) << "row " << u;
    ASSERT_EQ(view.degree(u), expect.size()) << "row " << u;
  }
}

TEST(HybridGraph, StartsAsBase) {
  HybridGraph hybrid(make_base(11));
  const auto oracle = edge_set(hybrid.view().base());
  EXPECT_EQ(hybrid.delta_keys(), 0u);
  expect_matches(hybrid, oracle);
}

// The read-only service's graph: a View over a caller-owned CSR with an
// empty delta answers exactly as the CSR, which it borrows, not copies.
TEST(HybridGraph, FrozenViewAnswersAsTheCsr) {
  const csr::BitPackedCsr base = make_base(21);
  const HybridGraph::View view = HybridGraph::frozen_view(base);
  ASSERT_TRUE(view.valid());
  EXPECT_EQ(&view.base(), &base);
  EXPECT_TRUE(view.delta().empty());
  EXPECT_EQ(view.num_nodes(), base.num_nodes());
  EXPECT_EQ(view.num_edges(), base.num_edges());
  SplitMix64 rng(21);
  for (VertexId u = 0; u < base.num_nodes(); ++u) {
    const std::vector<VertexId> row = base.neighbors(u);
    ASSERT_EQ(view.neighbors(u), row) << "row " << u;
    ASSERT_EQ(view.degree(u), base.degree(u)) << "row " << u;
    for (const VertexId v : row) ASSERT_TRUE(view.has_edge(u, v));
    const auto v = static_cast<VertexId>(rng.next_below(kNodes));
    ASSERT_EQ(view.has_edge(u, v), base.has_edge(u, v)) << u << "," << v;
  }
}

TEST(HybridGraph, AddAndRemoveBatches) {
  HybridGraph hybrid(make_base(12));
  auto oracle = edge_set(hybrid.view().base());

  std::vector<Edge> adds = {{1, 2}, {1, 3}, {100, 7}, {511, 0}};
  std::vector<std::uint8_t> changed;
  const std::size_t added = hybrid.add_edges(adds, 2, &changed);
  ASSERT_EQ(changed.size(), adds.size());
  std::size_t expect_added = 0;
  for (std::size_t i = 0; i < adds.size(); ++i) {
    const bool fresh = oracle.insert({adds[i].u, adds[i].v}).second;
    EXPECT_EQ(changed[i] != 0, fresh) << i;
    expect_added += fresh ? 1 : 0;
  }
  EXPECT_EQ(added, expect_added);
  expect_matches(hybrid, oracle);

  // Remove one fresh edge and one base edge.
  const auto base_edge = *oracle.begin();
  std::vector<Edge> dels = {{1, 2}, {base_edge.first, base_edge.second}};
  const std::size_t removed = hybrid.remove_edges(dels, 2, &changed);
  EXPECT_EQ(removed, 2u);
  oracle.erase({1, 2});
  oracle.erase(base_edge);
  expect_matches(hybrid, oracle);
}

TEST(HybridGraph, DuplicateEdgesInOneBatch) {
  HybridGraph hybrid(make_base(13));
  auto oracle = edge_set(hybrid.view().base());
  ASSERT_FALSE(oracle.count({500, 500}));
  std::vector<Edge> adds = {{500, 500}, {500, 500}, {500, 500}};
  std::vector<std::uint8_t> changed;
  EXPECT_EQ(hybrid.add_edges(adds, 2, &changed), 1u);
  // First occurrence claims the change; the rest are no-ops.
  EXPECT_EQ(changed, (std::vector<std::uint8_t>{1, 0, 0}));
  oracle.insert({500, 500});
  expect_matches(hybrid, oracle);
}

TEST(HybridGraph, ToggleCancellation) {
  // add → remove → add of the same absent edge must end visible with a
  // delta of exactly one key (toggles cancel, never accumulate).
  HybridGraph hybrid(make_base(14));
  std::vector<Edge> e = {{9, 9}};
  ASSERT_FALSE(hybrid.view().has_edge(9, 9));
  hybrid.add_edges(e, 1);
  EXPECT_TRUE(hybrid.view().has_edge(9, 9));
  EXPECT_EQ(hybrid.delta_keys(), 1u);
  hybrid.remove_edges(e, 1);
  EXPECT_FALSE(hybrid.view().has_edge(9, 9));
  EXPECT_EQ(hybrid.delta_keys(), 0u);
  hybrid.add_edges(e, 1);
  EXPECT_TRUE(hybrid.view().has_edge(9, 9));
  EXPECT_EQ(hybrid.delta_keys(), 1u);
}

TEST(HybridGraph, MatchesSetOracleUnderChurn) {
  // Small thresholds so ratio-triggered compactions fire between rounds and
  // the oracle is checked on both sides of each one.
  HybridGraph::Config config;
  config.compact_ratio = 0.05;
  config.compact_min_keys = 64;
  HybridGraph hybrid(make_base(15), config);
  auto oracle = edge_set(hybrid.view().base());
  SplitMix64 rng(15);
  int compactions = 0;
  for (int round = 0; round < 25; ++round) {
    std::vector<Edge> batch;
    for (int i = 0; i < 400; ++i)
      batch.push_back({static_cast<VertexId>(rng.next_below(kNodes)),
                       static_cast<VertexId>(rng.next_below(kNodes))});
    if (rng.next_bool(0.6)) {
      hybrid.add_edges(batch, 4);
      for (const Edge& e : batch) oracle.insert({e.u, e.v});
    } else {
      hybrid.remove_edges(batch, 4);
      for (const Edge& e : batch) oracle.erase({e.u, e.v});
    }
    SCOPED_TRACE("round " + std::to_string(round));
    ASSERT_NO_FATAL_FAILURE(expect_matches(hybrid, oracle));
    if (hybrid.maybe_compact(4)) ++compactions;
    ASSERT_NO_FATAL_FAILURE(expect_matches(hybrid, oracle));
  }
  EXPECT_GE(compactions, 1);
}

TEST(HybridGraph, CompactionPreservesEdgeSet) {
  HybridGraph hybrid(make_base(16));
  auto oracle = edge_set(hybrid.view().base());
  SplitMix64 rng(16);
  std::vector<Edge> adds, dels;
  for (int i = 0; i < 3000; ++i)
    adds.push_back({static_cast<VertexId>(rng.next_below(kNodes)),
                    static_cast<VertexId>(rng.next_below(kNodes))});
  for (int i = 0; i < 1000; ++i)
    dels.push_back({static_cast<VertexId>(rng.next_below(kNodes)),
                    static_cast<VertexId>(rng.next_below(kNodes))});
  hybrid.add_edges(adds, 4);
  for (const Edge& e : adds) oracle.insert({e.u, e.v});
  hybrid.remove_edges(dels, 4);
  for (const Edge& e : dels) oracle.erase({e.u, e.v});

  ASSERT_GT(hybrid.delta_keys(), 0u);
  EXPECT_TRUE(hybrid.compact(4));
  EXPECT_EQ(hybrid.delta_keys(), 0u);
  expect_matches(hybrid, oracle);
  // The compacted base alone now carries the whole edge set.
  EXPECT_EQ(edge_set(hybrid.view().base()), oracle);
  // Compacting an empty delta is a no-op.
  EXPECT_FALSE(hybrid.compact(4));

  // Mutations keep landing correctly on the fresh base.
  std::vector<Edge> more = {{0, 1}, {0, 2}};
  hybrid.remove_edges(more, 2);
  oracle.erase({0, 1});
  oracle.erase({0, 2});
  expect_matches(hybrid, oracle);
}

TEST(HybridGraph, ViewIsolationAcrossCompaction) {
  HybridGraph hybrid(make_base(17));
  std::vector<Edge> adds = {{3, 3}, {4, 4}, {5, 5}};
  hybrid.add_edges(adds, 2);
  const HybridGraph::View pinned = hybrid.view();
  const std::size_t edges_before = pinned.num_edges();

  hybrid.compact(2);
  std::vector<Edge> dels = {{3, 3}};
  hybrid.remove_edges(dels, 2);

  // The pinned (base, delta) pair still answers the pre-compaction state.
  EXPECT_TRUE(pinned.has_edge(3, 3));
  EXPECT_EQ(pinned.num_edges(), edges_before);
  EXPECT_FALSE(hybrid.view().has_edge(3, 3));
  EXPECT_GT(hybrid.view().version(), pinned.version());
}

TEST(HybridGraph, MaybeCompactHonoursThresholds) {
  HybridGraph::Config config;
  config.compact_ratio = 0.25;
  config.compact_min_keys = 64;
  HybridGraph hybrid(make_base(18, 2000), config);
  ASSERT_FALSE(hybrid.needs_compaction());
  EXPECT_FALSE(hybrid.maybe_compact(2));

  SplitMix64 rng(18);
  std::vector<Edge> adds;
  while (!hybrid.needs_compaction()) {
    adds.clear();
    for (int i = 0; i < 512; ++i)
      adds.push_back({static_cast<VertexId>(rng.next_below(kNodes)),
                      static_cast<VertexId>(rng.next_below(kNodes))});
    hybrid.add_edges(adds, 2);
  }
  EXPECT_TRUE(hybrid.maybe_compact(2));
  EXPECT_EQ(hybrid.delta_keys(), 0u);
  EXPECT_FALSE(hybrid.needs_compaction());
}

TEST(HybridGraph, RejectsOutOfRangeEndpoints) {
  HybridGraph hybrid(make_base(19));
  std::vector<Edge> bad = {{0, kNodes}};
  EXPECT_DEATH(hybrid.add_edges(bad, 1), "PCQ_CHECK");
  std::vector<Edge> bad2 = {{kNodes, 0}};
  EXPECT_DEATH(hybrid.remove_edges(bad2, 1), "PCQ_CHECK");
}

// Readers answer point/row queries from pinned Views while one thread
// mutates in batches and another runs ratio-triggered compactions. Every
// View must stay internally consistent (degree == |neighbors| for sampled
// rows); TSan certifies the epoch publication protocol.
TEST(HybridGraph, ConcurrentReadersDuringMutationAndCompaction) {
  HybridGraph::Config config;
  config.compact_min_keys = 256;
  HybridGraph hybrid(make_base(20), config);
  std::atomic<bool> done{false};
  std::atomic<int> views_checked{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      SplitMix64 rng(100 + static_cast<std::uint64_t>(r));
      std::uint64_t last_version = 0;
      while (!done.load(std::memory_order_acquire)) {
        const HybridGraph::View view = hybrid.view();
        ASSERT_GE(view.version(), last_version);
        last_version = view.version();
        const auto u = static_cast<VertexId>(rng.next_below(kNodes));
        const auto row = view.neighbors(u);
        ASSERT_EQ(view.degree(u), row.size());
        ASSERT_TRUE(std::is_sorted(row.begin(), row.end()));
        for (const VertexId v : row) ASSERT_TRUE(view.has_edge(u, v));
        views_checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread compactor([&] {
    while (!done.load(std::memory_order_acquire)) hybrid.maybe_compact(2);
  });

  SplitMix64 rng(20);
  for (int round = 0; round < 40; ++round) {
    std::vector<Edge> batch;
    for (int i = 0; i < 300; ++i)
      batch.push_back({static_cast<VertexId>(rng.next_below(kNodes)),
                       static_cast<VertexId>(rng.next_below(kNodes))});
    if (round % 3 == 2)
      hybrid.remove_edges(batch, 2);
    else
      hybrid.add_edges(batch, 2);
  }
  done.store(true, std::memory_order_release);
  compactor.join();
  for (auto& t : readers) t.join();
  EXPECT_GT(views_checked.load(), 0);
  // Final state still fully consistent.
  EXPECT_TRUE(hybrid.view().delta().check_invariants());
}

}  // namespace
}  // namespace pcq::dyn
