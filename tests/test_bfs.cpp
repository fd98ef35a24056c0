#include "algos/bfs.hpp"

#include <gtest/gtest.h>

#include <queue>

#include "csr/builder.hpp"
#include "graph/generators.hpp"

namespace pcq::algos {
namespace {

using graph::EdgeList;
using graph::VertexId;

std::vector<std::uint32_t> reference_bfs(const csr::CsrGraph& g,
                                         VertexId source) {
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  dist[source] = 0;
  std::queue<VertexId> q;
  q.push(source);
  while (!q.empty()) {
    const VertexId u = q.front();
    q.pop();
    for (VertexId v : g.neighbors(u))
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
  }
  return dist;
}

csr::CsrGraph path_graph(VertexId n) {
  EdgeList g;
  for (VertexId i = 0; i + 1 < n; ++i) {
    g.push_back({i, i + 1});
    g.push_back({i + 1, i});
  }
  g.sort(2);
  return csr::build_csr_from_sorted(g, n, 2);
}

TEST(Bfs, PathGraphDistances) {
  const csr::CsrGraph g = path_graph(10);
  const auto dist = bfs(g, 0, 4);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Bfs, DisconnectedNodesUnreachable) {
  EdgeList g({{0, 1}, {1, 0}, {3, 4}, {4, 3}});
  g.sort(2);
  const csr::CsrGraph csr = csr::build_csr_from_sorted(g, 5, 2);
  const auto dist = bfs(csr, 0, 4);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(Bfs, SingleNodeSource) {
  const csr::CsrGraph g = csr::build_csr_from_sorted(EdgeList{}, 1, 2);
  const auto dist = bfs(g, 0, 4);
  EXPECT_EQ(dist, (std::vector<std::uint32_t>{0}));
}

TEST(Bfs, MatchesReferenceOnRandomGraph) {
  EdgeList g = graph::rmat(1 << 9, 8000, 0.57, 0.19, 0.19, 61, 4);
  g.symmetrize();
  g.sort(4);
  g.dedupe();
  const csr::CsrGraph csr = csr::build_csr_from_sorted(g, 1 << 9, 4);
  const auto expect = reference_bfs(csr, 0);
  for (int p : {1, 2, 4, 8, 64}) EXPECT_EQ(bfs(csr, 0, p), expect) << "p=" << p;
}

TEST(Bfs, DirectedRmatMatchesReference) {
  // Not symmetrised: out-rows only, as pcq and the benchmark traverse them.
  EdgeList g = graph::rmat(1 << 9, 8000, 0.57, 0.19, 0.19, 71, 4);
  g.sort(4);
  g.dedupe();
  const csr::CsrGraph plain = csr::build_csr_from_sorted(g, 1 << 9, 4);
  const csr::BitPackedCsr packed = csr::BitPackedCsr::from_csr(plain, 4);
  for (const VertexId source : {0u, 3u, 200u}) {
    const auto expect = reference_bfs(plain, source);
    for (int p : {1, 2, 4, 8, 64}) {
      EXPECT_EQ(bfs(plain, source, p), expect) << "s=" << source << " p=" << p;
      EXPECT_EQ(bfs(packed, source, p), expect) << "s=" << source << " p=" << p;
    }
  }
}

TEST(Bfs, PackedMatchesPlain) {
  EdgeList g = graph::rmat(1 << 9, 8000, 0.57, 0.19, 0.19, 67, 4);
  g.symmetrize();
  g.sort(4);
  g.dedupe();
  const csr::CsrGraph plain = csr::build_csr_from_sorted(g, 1 << 9, 4);
  const csr::BitPackedCsr packed = csr::BitPackedCsr::from_csr(plain, 4);
  EXPECT_EQ(bfs(packed, 5, 4), bfs(plain, 5, 4));
}

TEST(Bfs, StarGraphOneHop) {
  EdgeList g;
  for (VertexId v = 1; v < 100; ++v) {
    g.push_back({0, v});
    g.push_back({v, 0});
  }
  g.sort(2);
  const csr::CsrGraph csr = csr::build_csr_from_sorted(g, 100, 2);
  const auto dist = bfs(csr, 0, 8);
  for (VertexId v = 1; v < 100; ++v) EXPECT_EQ(dist[v], 1u);
  const auto from_leaf = bfs(csr, 42, 8);
  EXPECT_EQ(from_leaf[0], 1u);
  EXPECT_EQ(from_leaf[17], 2u);
}

}  // namespace
}  // namespace pcq::algos
