// Supplementary bench **S2**: memory footprint of every storage structure
// — the paper's "smaller memory footprint ... compared to traditional
// storage structures" claim (abstract, §VI), extended with the temporal
// structures of Section IV.
//
// Usage: bench_compression [--scale 0.0625] [--seed 42]
#include <cstdio>

#include "csr/builder.hpp"
#include "graph/baselines.hpp"
#include "graph/generators.hpp"
#include "graph/k2tree.hpp"
#include "graph/transforms.hpp"
#include "graph/webgraph.hpp"
#include "tcsr/baselines.hpp"
#include "tcsr/tcsr.hpp"
#include "util/flags.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pcq;

  util::Flags flags(argc, argv,
                    {{"scale", "fraction of full SNAP sizes (default 1/16)"},
                     {"seed", "generator seed"}});
  const double scale = flags.get_double("scale", 1.0 / 16);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  std::printf("S2: storage footprint by structure (scale %.4f)\n\n", scale);
  util::Table table({"Graph", "# Edges", "EdgeList", "AdjList", "Plain CSR",
                     "BitPacked CSR", "Gap+Zeta", "Gap+Zeta relab.",
                     "k2-tree", "bits/edge", "vs EdgeList"});
  for (const auto& preset : graph::paper_presets()) {
    graph::EdgeList list = graph::make_preset_graph(preset, scale, seed, 0);
    list.dedupe();
    const graph::VertexId n = list.num_nodes();
    const csr::CsrGraph plain = csr::build_csr_from_sorted(list, n, 0);
    const csr::BitPackedCsr packed = csr::BitPackedCsr::from_csr(plain, 0);
    const graph::AdjacencyListGraph adj(list, n);
    // WebGraph-style baseline (§II ref [2]): gap + zeta_3, plain ids and
    // degree-relabeled ids.
    const graph::GapZetaGraph zeta =
        graph::GapZetaGraph::build_from_sorted(list, n, 3, 0);
    graph::RelabelResult relab = graph::relabel_by_degree(list, n, 0);
    relab.list.sort(0);
    const graph::GapZetaGraph zeta_relab =
        graph::GapZetaGraph::build_from_sorted(relab.list, n, 3, 0);
    const graph::K2Tree k2 = graph::K2Tree::build(list, n, 4, 0);

    const double bits_per_edge =
        list.empty() ? 0
                     : 8.0 * static_cast<double>(packed.size_bytes()) /
                           static_cast<double>(list.size());
    const double ratio = static_cast<double>(list.size_bytes()) /
                         static_cast<double>(packed.size_bytes());
    table.add_row({preset.name, util::with_commas(list.size()),
                   util::human_bytes(list.size_bytes()),
                   util::human_bytes(adj.size_bytes()),
                   util::human_bytes(plain.size_bytes()),
                   util::human_bytes(packed.size_bytes()),
                   util::human_bytes(zeta.size_bytes()),
                   util::human_bytes(zeta_relab.size_bytes()),
                   util::human_bytes(k2.size_bytes()),
                   util::fixed(bits_per_edge, 2),
                   util::fixed(ratio, 2) + "x"});
  }
  table.print();
  std::printf("\nGap+Zeta is the WebGraph-class baseline (ref [2]): smaller "
              "streams, but rows decode\nfront-to-back only — no O(1) packed "
              "random access, the trade-off the paper's\nfixed-width packing "
              "takes the other side of (see bench_query).\n");

  // Dense matrix comparison only makes sense at tiny n (the structure the
  // paper's intro rules out at social scale): show it on a 10k-node slice.
  {
    const graph::EdgeList list = graph::rmat(10'000, 200'000, 0.57, 0.19,
                                             0.19, seed, 0);
    graph::EdgeList sorted = list;
    sorted.sort(0);
    const csr::CsrGraph plain = csr::build_csr_from_sorted(sorted, 10'000, 0);
    const csr::BitPackedCsr packed = csr::BitPackedCsr::from_csr(plain, 0);
    const graph::DenseBitMatrixGraph dense(sorted, 10'000);
    std::printf("\nDense-matrix comparison (10,000 nodes, 200,000 edges):\n");
    std::printf("  dense bit matrix : %s\n",
                util::human_bytes(dense.size_bytes()).c_str());
    std::printf("  bit-packed CSR   : %s (%.1fx smaller)\n",
                util::human_bytes(packed.size_bytes()).c_str(),
                static_cast<double>(dense.size_bytes()) / packed.size_bytes());
  }

  // Temporal structures (Section IV): differential TCSR vs snapshot
  // sequence vs EveLog on a persistent-edge workload.
  {
    std::printf("\nTemporal storage (Section IV; 20k nodes, 200k events, "
                "32 frames):\n");
    const graph::TemporalEdgeList events =
        graph::evolving_graph(20'000, 200'000, 32, seed, 0);
    const auto tcsr = tcsr::DifferentialTcsr::build(events, 0, 0, 0);
    const auto snaps = tcsr::SnapshotSequence::build(events, 0, 0, 0);
    const auto evelog = tcsr::EveLog::build(events, 0, 0);
    std::printf("  raw event list      : %s\n",
                util::human_bytes(events.size_bytes()).c_str());
    std::printf("  differential TCSR   : %s\n",
                util::human_bytes(tcsr.size_bytes()).c_str());
    std::printf("  snapshot sequence   : %s (%.1fx the TCSR)\n",
                util::human_bytes(snaps.size_bytes()).c_str(),
                static_cast<double>(snaps.size_bytes()) / tcsr.size_bytes());
    std::printf("  EveLog (gap coded)  : %s\n",
                util::human_bytes(evelog.size_bytes()).c_str());
  }
  return 0;
}
