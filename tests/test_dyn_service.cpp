// pcq::svc over a live pcq::dyn::HybridGraph: mutation kinds land, reads
// observe them, the read-only service rejects them, and a mixed
// multi-client load leaves the graph exactly where a sequential oracle
// says it should be. The concurrent cases double as TSan subjects.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "csr/builder.hpp"
#include "dyn/hybrid.hpp"
#include "graph/generators.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace pcq::svc {
namespace {

using dyn::HybridGraph;
using graph::Edge;
using graph::VertexId;
using pcq::util::SplitMix64;

constexpr VertexId kNodes = 256;

csr::BitPackedCsr make_base(std::uint64_t seed) {
  graph::EdgeList list = graph::rmat(kNodes, 4000, 0.57, 0.19, 0.19, seed, 2);
  list.sort(2);
  list.dedupe();
  return csr::build_bitpacked_csr_from_sorted(list, kNodes, 2);
}

Request make(QueryKind kind, VertexId u, VertexId v = 0) {
  Request r;
  r.kind = kind;
  r.u = u;
  r.v = v;
  return r;
}

ServiceConfig quick_config(int shards = 2) {
  ServiceConfig config;
  config.shards = shards;
  // Deep enough that the open-loop concurrent test never hits kRejected.
  config.queue_capacity = 16384;
  config.max_batch = 64;
  config.kernel_threads = 2;
  return config;
}

TEST(DynService, MutationsVisibleToReads) {
  HybridGraph graph(make_base(21));
  QueryService service(graph, nullptr, quick_config());

  // Find an edge the base definitely lacks.
  VertexId u = 7, v = 9;
  while (graph.view().has_edge(u, v)) v = (v + 1) % kNodes;
  Response add = service.submit(make(QueryKind::kAddEdges, u, v)).get();
  EXPECT_EQ(add.status, Status::kOk);
  EXPECT_TRUE(add.exists);  // visibility changed

  Response exists = service.submit(make(QueryKind::kEdgeExists, u, v)).get();
  EXPECT_EQ(exists.status, Status::kOk);
  EXPECT_TRUE(exists.exists);

  // Second add of the same edge is a no-op.
  Response again = service.submit(make(QueryKind::kAddEdges, u, v)).get();
  EXPECT_EQ(again.status, Status::kOk);
  EXPECT_FALSE(again.exists);

  Response del = service.submit(make(QueryKind::kRemoveEdges, u, v)).get();
  EXPECT_EQ(del.status, Status::kOk);
  EXPECT_TRUE(del.exists);
  Response gone = service.submit(make(QueryKind::kEdgeExists, u, v)).get();
  EXPECT_FALSE(gone.exists);

  const MetricsSnapshot snap = service.metrics();
  EXPECT_EQ(snap.mutations, 3u);
}

TEST(DynService, ReadsMatchDirectView) {
  HybridGraph graph(make_base(22));
  // Mutate first so reads exercise base ⊕ delta, not just the base.
  SplitMix64 rng(22);
  std::vector<Edge> adds, dels;
  for (int i = 0; i < 500; ++i)
    adds.push_back({static_cast<VertexId>(rng.next_below(kNodes)),
                    static_cast<VertexId>(rng.next_below(kNodes))});
  for (int i = 0; i < 200; ++i)
    dels.push_back({static_cast<VertexId>(rng.next_below(kNodes)),
                    static_cast<VertexId>(rng.next_below(kNodes))});
  graph.add_edges(adds, 2);
  graph.remove_edges(dels, 2);

  QueryService service(graph, nullptr, quick_config());
  const HybridGraph::View view = graph.view();
  for (VertexId u = 0; u < kNodes; u += 3) {
    Response deg = service.submit(make(QueryKind::kDegree, u)).get();
    ASSERT_EQ(deg.status, Status::kOk);
    EXPECT_EQ(deg.degree, view.degree(u)) << u;
    Response row = service.submit(make(QueryKind::kNeighbors, u)).get();
    ASSERT_EQ(row.status, Status::kOk);
    EXPECT_EQ(row.neighbors, view.neighbors(u)) << u;
    const auto v = static_cast<VertexId>((u * 7 + 1) % kNodes);
    Response edge = service.submit(make(QueryKind::kEdgeExists, u, v)).get();
    ASSERT_EQ(edge.status, Status::kOk);
    EXPECT_EQ(edge.exists, view.has_edge(u, v)) << u;
  }
}

TEST(DynService, StaticServiceRejectsMutations) {
  const csr::BitPackedCsr base = make_base(23);
  QueryService service(base, nullptr, quick_config());
  Response r = service.submit(make(QueryKind::kAddEdges, 1, 2)).get();
  EXPECT_EQ(r.status, Status::kUnsupported);
  r = service.submit(make(QueryKind::kRemoveEdges, 1, 2)).get();
  EXPECT_EQ(r.status, Status::kUnsupported);
  EXPECT_EQ(service.metrics().mutations, 0u);
}

TEST(DynService, MutationValidatesBothEndpoints) {
  HybridGraph graph(make_base(24));
  QueryService service(graph, nullptr, quick_config());
  EXPECT_EQ(service.submit(make(QueryKind::kAddEdges, 0, kNodes)).get().status,
            Status::kInvalid);
  EXPECT_EQ(service.submit(make(QueryKind::kAddEdges, kNodes, 0)).get().status,
            Status::kInvalid);
  EXPECT_EQ(
      service.submit(make(QueryKind::kRemoveEdges, 0, kNodes)).get().status,
      Status::kInvalid);
}

TEST(DynService, MixedConcurrentClientsConverge) {
  HybridGraph::Config hconfig;
  hconfig.compact_min_keys = 512;  // let the service trigger compactions
  HybridGraph graph(make_base(25), hconfig);
  QueryService service(graph, nullptr, quick_config(4));

  // Each client owns a disjoint v-slice (v ≡ c mod kClients) and touches
  // every edge in it at most once, so the final visibility of each edge is
  // its single op's intent — deterministic no matter how the service
  // batches or how clients interleave.
  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 2000;
  std::vector<std::thread> clients;
  std::vector<std::set<std::pair<VertexId, VertexId>>> final_adds(kClients);
  std::vector<std::set<std::pair<VertexId, VertexId>>> final_dels(kClients);

  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SplitMix64 rng(200 + static_cast<std::uint64_t>(c));
      std::vector<std::future<Response>> futures;
      std::set<std::pair<VertexId, VertexId>> touched;
      for (int i = 0; i < kOpsPerClient; ++i) {
        const auto u = static_cast<VertexId>(rng.next_below(kNodes));
        const auto v = static_cast<VertexId>(
            (rng.next_below(kNodes / kClients)) * kClients +
            static_cast<VertexId>(c));
        const bool mutate = rng.next_bool(0.6);
        if (mutate && touched.insert({u, v}).second) {
          if (rng.next_bool(0.4)) {
            futures.push_back(
                service.submit(make(QueryKind::kRemoveEdges, u, v)));
            final_dels[c].insert({u, v});
          } else {
            futures.push_back(service.submit(make(QueryKind::kAddEdges, u, v)));
            final_adds[c].insert({u, v});
          }
        } else {
          futures.push_back(service.submit(make(QueryKind::kDegree, u)));
        }
      }
      for (auto& f : futures) {
        const Response r = f.get();
        ASSERT_EQ(r.status, Status::kOk);
      }
    });
  }
  for (auto& t : clients) t.join();
  service.stop();

  EXPECT_GT(service.metrics().mutations, 0u);
  const HybridGraph::View view = graph.view();
  for (int c = 0; c < kClients; ++c) {
    for (const auto& [u, v] : final_adds[c])
      EXPECT_TRUE(view.has_edge(u, v)) << u << "," << v;
    for (const auto& [u, v] : final_dels[c])
      EXPECT_FALSE(view.has_edge(u, v)) << u << "," << v;
  }
  EXPECT_TRUE(view.delta().check_invariants());
}

}  // namespace
}  // namespace pcq::svc
