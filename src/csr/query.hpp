// Parallel querying of the bit-packed CSR — Section V, Algorithms 6–9.
//
// Three entry points, each mirroring one "do in parallel" block of the
// paper's Algorithm 9 dispatcher:
//
//   * batch_neighbors      (Alg. 6) — an array of neighbourhood queries is
//     split into p chunks; each processor decodes its queries' rows with
//     GetRowFromCSR.
//   * batch_edge_existence (Alg. 7) — an array of (u, v) queries is split
//     into p chunks; each processor decodes u's row and scans it for v.
//   * edge_exists_intra_row (Alg. 8) — a single (u, v) query; u's row is
//     split into p chunks and all processors search concurrently. The
//     paper notes the scan "could also be extended to a binary search";
//     both variants are provided.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "csr/bitpacked_csr.hpp"
#include "graph/types.hpp"

namespace pcq::csr {

/// Algorithm 6: neighbours of every node in `query_nodes`, computed with
/// `num_threads` processors. result[i] is the neighbour row of
/// query_nodes[i] (duplicate query nodes are answered independently).
std::vector<std::vector<graph::VertexId>> batch_neighbors(
    const BitPackedCsr& csr, std::span<const graph::VertexId> query_nodes,
    int num_threads);

/// Algorithm 6 into caller-owned storage: out[i] is assigned the neighbour
/// row of query_nodes[i]. out.size() must equal query_nodes.size(). The
/// caller owns one slot per query and the kernel writes rows straight into
/// them, so a batch costs no intermediate result array. (pcq::svc reads
/// through dyn::HybridGraph::View instead, which does the same per-row
/// work.)
void batch_neighbors_into(const BitPackedCsr& csr,
                          std::span<const graph::VertexId> query_nodes,
                          std::span<std::vector<graph::VertexId>> out,
                          int num_threads);

/// Degrees of every node in `query_nodes` into caller-owned storage.
void batch_degrees_into(const BitPackedCsr& csr,
                        std::span<const graph::VertexId> query_nodes,
                        std::span<std::uint32_t> out, int num_threads);

/// Flat result of a neighbourhood batch: row i of query node i lives at
/// values[offsets[i] .. offsets[i + 1]). CSR-shaped, so a million-query
/// batch costs two allocations instead of a million.
struct BatchNeighborsResult {
  std::vector<std::uint64_t> offsets;  ///< size queries + 1
  std::vector<graph::VertexId> values;

  [[nodiscard]] std::span<const graph::VertexId> row(std::size_t i) const {
    return {values.data() + offsets[i], values.data() + offsets[i + 1]};
  }
};

/// Algorithm 6 with flat output. Two passes: degrees of all query nodes ->
/// offsets via the chunked prefix sum (Algorithm 1 again) -> parallel row
/// decode straight into the flat buffer.
BatchNeighborsResult batch_neighbors_flat(
    const BitPackedCsr& csr, std::span<const graph::VertexId> query_nodes,
    int num_threads);

/// How a neighbour row is searched for a target column.
enum class RowSearch {
  kLinear,  ///< as written in Algorithms 7/8 (the paper-faithful ablation)
  kBinary,  ///< the paper's suggested extension (rows are sorted)
};

/// Algorithm 7: existence of every edge in `query_edges`; result[i] is 1
/// iff query_edges[i] is present. The default streams each row through
/// the word-wise cursor with the paper's linear scan; kBinary switches to
/// an O(log deg) packed binary search per query (builder rows are
/// column-sorted — asserted in debug builds).
std::vector<std::uint8_t> batch_edge_existence(
    const BitPackedCsr& csr, std::span<const graph::Edge> query_edges,
    int num_threads, RowSearch search = RowSearch::kLinear);

/// Algorithm 7 into caller-owned storage: out[i] = 1 iff query_edges[i] is
/// present. out.size() must equal query_edges.size().
void batch_edge_existence_into(const BitPackedCsr& csr,
                               std::span<const graph::Edge> query_edges,
                               std::span<std::uint8_t> out, int num_threads,
                               RowSearch search = RowSearch::kLinear);

/// Algorithm 8: single edge query answered by splitting u's row across
/// `num_threads` processors. "One of the processors will return true if
/// the edge exists, if not all return false."
bool edge_exists_intra_row(const BitPackedCsr& csr, graph::VertexId u,
                           graph::VertexId v, int num_threads,
                           RowSearch search = RowSearch::kLinear);

}  // namespace pcq::csr
