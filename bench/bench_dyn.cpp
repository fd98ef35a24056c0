// Supplementary bench **S16**: ingest throughput of the dynamic tier.
//
// Three measurements on the same shuffled edge stream:
//
//   pcsr single-edge — PmaCsr::add_edge one edge at a time: the classic
//     uncompressed PMA baseline (what §II's PCSR citations provide).
//   cpma batch — Cpma::insert_batch, the batch-parallel compressed PMA:
//     the headline comparison; the whole stream lands in --batch-sized
//     batches (default: one batch) across --threads.
//   hybrid live ingest — HybridGraph::add_edges batches against a packed
//     CSR base with opportunistic compaction after every batch: what the
//     serving layer actually runs, so the reported rate includes toggle
//     resolution against the base and any compactions the ratio triggers.
//
// Also reports the erase path (batch removal of half the stream), the
// resident bytes of each structure, since the CPMA's delta encoding is the
// point of carrying it instead of a plain PMA, and (S8) single-threaded
// point has_edge latency: PmaCsr beside a HybridGraph::View with an empty
// delta and with the delta the ingest left pending.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "csr/builder.hpp"
#include "csr/pcsr.hpp"
#include "dyn/hybrid.hpp"
#include "graph/generators.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using pcq::dyn::Cpma;
using pcq::dyn::HybridGraph;
using pcq::dyn::Key;
using pcq::graph::Edge;
using pcq::graph::VertexId;

double rate(std::size_t n, double seconds) {
  return static_cast<double>(n) / std::max(seconds, 1e-12);
}

/// Mean ns per has_edge call over `probes`. Aborts when fewer than
/// `min_hits` probes answer true: a store holding the whole stream must
/// hit every stream probe.
template <typename HasEdge>
double ns_per_probe(const std::vector<Edge>& probes, std::size_t min_hits,
                    HasEdge&& has_edge) {
  std::size_t hits = 0;
  pcq::util::Timer t;
  for (const Edge& e : probes) hits += has_edge(e.u, e.v) ? 1 : 0;
  const double ns = t.seconds() * 1e9 / static_cast<double>(probes.size());
  if (hits < min_hits) std::abort();
  return ns;
}

}  // namespace

int main(int argc, char** argv) {
  pcq::util::Flags flags(
      argc, argv,
      {
          {"nodes", "vertex-id space (default 1048576)"},
          {"edges", "edges in the ingest stream (default 1000000)"},
          {"batch", "batch size; 0 = the whole stream as one batch "
                    "(default 0)"},
          {"threads", "threads for batch calls; 0 = hardware (default 0)"},
          {"base-edges", "base CSR size for the hybrid experiment "
                         "(default 2000000)"},
          {"seed", "R-MAT seed (default 42)"},
          {"json", "write the results as a JSON document to this file"},
      });
  const auto nodes =
      static_cast<VertexId>(flags.get_int("nodes", 1 << 20));
  const auto want_edges =
      static_cast<std::size_t>(flags.get_int("edges", 1'000'000));
  std::size_t batch = static_cast<std::size_t>(flags.get_int("batch", 0));
  const int threads = static_cast<int>(flags.get_int("threads", 0));
  const auto base_edges =
      static_cast<std::size_t>(flags.get_int("base-edges", 2'000'000));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  // Unique skewed edges, then shuffled: R-MAT dedupe undershoots the asked
  // count, so over-ask and trim. The shuffle matters — sorted input would
  // hand the single-edge baseline pure append behaviour.
  std::fprintf(stderr, "[bench_dyn] building %zu-edge R-MAT stream...\n",
               want_edges);
  pcq::graph::EdgeList list = pcq::graph::rmat(
      nodes, want_edges + want_edges / 4, 0.57, 0.19, 0.19, seed, 0);
  list.sort(0);
  list.dedupe();
  std::vector<Edge> stream(list.edges().begin(), list.edges().end());
  if (stream.size() > want_edges) stream.resize(want_edges);
  {
    pcq::util::SplitMix64 rng(seed ^ 0xabcdef12345ull);
    for (std::size_t i = stream.size(); i > 1; --i)
      std::swap(stream[i - 1], stream[rng.next_below(i)]);
  }
  const std::size_t n = stream.size();
  if (batch == 0 || batch > n) batch = n;
  std::vector<Key> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = pcq::dyn::key_of(stream[i].u, stream[i].v);

  std::printf("ingest stream: %zu unique edges, batch %zu, threads %d\n", n,
              batch, threads);

  // Point-query probes: even slots are stream edges (hits once ingested),
  // odd slots uniform pairs (almost all misses).
  std::vector<Edge> probes(std::size_t{1} << 18);
  {
    pcq::util::SplitMix64 rng(seed ^ 0x5eedull);
    for (std::size_t i = 0; i < probes.size(); ++i)
      probes[i] = i % 2 == 0 ? stream[rng.next_below(n)]
                             : Edge{static_cast<VertexId>(rng.next_below(nodes)),
                                    static_cast<VertexId>(rng.next_below(nodes))};
  }

  // --- pcsr single-edge baseline ---------------------------------------
  double pcsr_insert_s, pcsr_bytes, pcsr_probe_ns;
  {
    pcq::csr::PmaCsr pma;
    pcq::util::Timer t;
    for (const Edge& e : stream) pma.add_edge(e.u, e.v);
    pcsr_insert_s = t.seconds();
    pcsr_bytes = static_cast<double>(pma.size_bytes());
    if (pma.num_edges() != n) std::abort();
    pcsr_probe_ns =
        ns_per_probe(probes, probes.size() / 2, [&pma](VertexId u, VertexId v) {
          return pma.has_edge(u, v);
        });
  }
  std::printf("pcsr  single-edge insert  %10.0f edges/s  (%.3fs, %.1f B/edge)\n",
              rate(n, pcsr_insert_s), pcsr_insert_s,
              pcsr_bytes / static_cast<double>(n));

  // --- cpma batch-parallel ----------------------------------------------
  double cpma_insert_s, cpma_erase_s, cpma_bytes;
  {
    Cpma cpma;
    pcq::util::Timer t;
    for (std::size_t off = 0; off < n; off += batch) {
      const std::size_t len = std::min(batch, n - off);
      cpma.insert_batch({keys.data() + off, len}, threads);
    }
    cpma_insert_s = t.seconds();
    cpma_bytes = static_cast<double>(cpma.size_bytes());
    if (cpma.size() != n) std::abort();
    // Erase every other key, batch-parallel.
    std::vector<Key> victims;
    victims.reserve(n / 2);
    for (std::size_t i = 0; i < n; i += 2) victims.push_back(keys[i]);
    pcq::util::Timer te;
    for (std::size_t off = 0; off < victims.size(); off += batch) {
      const std::size_t len = std::min(batch, victims.size() - off);
      cpma.erase_batch({victims.data() + off, len}, threads);
    }
    cpma_erase_s = te.seconds();
    if (cpma.size() != n - victims.size()) std::abort();
  }
  const double speedup = pcsr_insert_s / std::max(cpma_insert_s, 1e-12);
  std::printf("cpma  batch insert        %10.0f edges/s  (%.3fs, %.1f B/edge)\n",
              rate(n, cpma_insert_s), cpma_insert_s,
              cpma_bytes / static_cast<double>(n));
  std::printf("cpma  batch erase         %10.0f edges/s  (%.3fs)\n",
              rate(n / 2, cpma_erase_s), cpma_erase_s);
  std::printf("cpma batch-insert speedup over pcsr single-edge: %.2fx\n",
              speedup);

  // --- cpma single-thread batches (scaling attribution) -----------------
  double cpma_t1_insert_s;
  {
    Cpma cpma;
    pcq::util::Timer t;
    for (std::size_t off = 0; off < n; off += batch) {
      const std::size_t len = std::min(batch, n - off);
      cpma.insert_batch({keys.data() + off, len}, 1);
    }
    cpma_t1_insert_s = t.seconds();
    std::printf("cpma  batch insert (t=1)  %10.0f edges/s  (%.3fs)\n",
                rate(n, cpma_t1_insert_s), cpma_t1_insert_s);
  }

  // --- hybrid live ingest ------------------------------------------------
  double hybrid_s, empty_probe_ns, pending_probe_ns;
  std::size_t hybrid_compactions, hybrid_delta_keys, pending_keys;
  {
    std::fprintf(stderr, "[bench_dyn] building %zu-edge base CSR...\n",
                 base_edges);
    pcq::graph::EdgeList base_list =
        pcq::graph::rmat(nodes, base_edges, 0.57, 0.19, 0.19, seed + 1, 0);
    base_list.sort(0);
    base_list.dedupe();
    HybridGraph hybrid(
        pcq::csr::build_bitpacked_csr_from_sorted(base_list, nodes, 0));
    const std::size_t before = hybrid.num_edges();
    empty_probe_ns =
        ns_per_probe(probes, 0, [view = hybrid.view()](VertexId u, VertexId v) {
          return view.has_edge(u, v);
        });
    // The View the last batch published, pinned before its maybe_compact:
    // it keeps the ingest's pending delta even if that batch compacts.
    HybridGraph::View pending;
    std::size_t compactions = 0;
    pcq::util::Timer t;
    for (std::size_t off = 0; off < n; off += batch) {
      const std::size_t len = std::min(batch, n - off);
      hybrid.add_edges({stream.data() + off, len}, threads);
      if (off + len == n) pending = hybrid.view();
      if (hybrid.maybe_compact(threads)) ++compactions;
    }
    hybrid_s = t.seconds();
    hybrid_compactions = compactions;
    hybrid_delta_keys = hybrid.delta_keys();
    std::printf("hybrid live ingest        %10.0f edges/s  (%.3fs, %zu "
                "compactions, %zu -> %zu edges, %zu delta keys pending)\n",
                rate(n, hybrid_s), hybrid_s, compactions, before,
                hybrid.num_edges(), hybrid_delta_keys);
    pending_keys = pending.delta().size();
    pending_probe_ns = ns_per_probe(
        probes, probes.size() / 2,
        [&pending](VertexId u, VertexId v) { return pending.has_edge(u, v); });
  }
  std::printf("point has_edge (t=1)      pcsr %.0f ns | hybrid empty delta "
              "%.0f ns | hybrid %zu delta keys %.0f ns\n",
              pcsr_probe_ns, empty_probe_ns, pending_keys, pending_probe_ns);

  // --- consolidated JSON document (--json FILE) --------------------------
  const std::string json = flags.get("json", "");
  if (!json.empty()) {
    std::ofstream out(json, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write results to %s\n", json.c_str());
      return 3;
    }
    char buf[512];
    out << "{\"bench\":\"bench_dyn\",";
    std::snprintf(buf, sizeof buf,
                  "\"config\":{\"nodes\":%llu,\"edges\":%zu,\"batch\":%zu,"
                  "\"threads\":%d,\"base_edges\":%zu,\"seed\":%llu},",
                  static_cast<unsigned long long>(nodes), n, batch, threads,
                  base_edges, static_cast<unsigned long long>(seed));
    out << buf;
    std::snprintf(buf, sizeof buf,
                  "\"pcsr\":{\"insert_edges_per_s\":%.1f,\"elapsed_s\":%.6f,"
                  "\"bytes_per_edge\":%.2f},",
                  rate(n, pcsr_insert_s), pcsr_insert_s,
                  pcsr_bytes / static_cast<double>(n));
    out << buf;
    std::snprintf(buf, sizeof buf,
                  "\"cpma\":{\"insert_edges_per_s\":%.1f,\"insert_s\":%.6f,"
                  "\"erase_edges_per_s\":%.1f,\"erase_s\":%.6f,"
                  "\"bytes_per_edge\":%.2f,\"t1_insert_edges_per_s\":%.1f,"
                  "\"speedup_vs_pcsr\":%.3f},",
                  rate(n, cpma_insert_s), cpma_insert_s,
                  rate(n / 2, cpma_erase_s), cpma_erase_s,
                  cpma_bytes / static_cast<double>(n),
                  rate(n, cpma_t1_insert_s), speedup);
    out << buf;
    std::snprintf(buf, sizeof buf,
                  "\"hybrid\":{\"ingest_edges_per_s\":%.1f,\"elapsed_s\":%.6f,"
                  "\"compactions\":%zu,\"delta_keys_pending\":%zu},"
                  "\"point_has_edge_ns\":{\"pcsr\":%.1f,\"hybrid_empty\":%.1f,"
                  "\"hybrid_pending\":%.1f,\"pending_keys\":%zu}}\n",
                  rate(n, hybrid_s), hybrid_s, hybrid_compactions,
                  hybrid_delta_keys, pcsr_probe_ns, empty_probe_ns,
                  pending_probe_ns, pending_keys);
    out << buf;
    if (!out) {
      std::fprintf(stderr, "error: cannot write results to %s\n", json.c_str());
      return 3;
    }
    std::fprintf(stderr, "[bench_dyn] wrote results %s\n", json.c_str());
  }
  return 0;
}
