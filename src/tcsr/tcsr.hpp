// Differential time-evolving CSR (TCSR) — Section IV / Algorithm 5.
//
// Storage: one bit-packed CSR per time-frame holding that frame's *state
// changes* (the differential form — frame 0's deltas are the initial
// graph). An edge is active at frame t iff it appears in an odd number of
// delta frames 0..t (§IV parity rule).
//
// Reconstruction: the snapshot at frame t is the prefix-XOR of the deltas,
// computed in parallel with the paper's chunked prefix-sum schedule
// (Algorithm 1) instantiated over the symmetric-difference monoid
// (edge_set.hpp) — "Perform differential CSR for every time-frame using
// the prefix sum algorithm."
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "csr/bitpacked_csr.hpp"
#include "csr/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "tcsr/edge_set.hpp"

namespace pcq::tcsr {

/// Per-phase wall times of one TCSR construction (Algorithm 5 steps).
struct TcsrBuildTimings {
  double frame_split = 0;   ///< locate frame slices (Alg. 2/3 on time column)
  double frame_build = 0;   ///< per-frame CSR construction + parity filter
  double pack = 0;          ///< Algorithm 4 bit packing of every frame

  [[nodiscard]] double total() const { return frame_split + frame_build + pack; }
};

/// A temporal point query: is edge (u, v) active at frame t?
struct TemporalEdgeQuery {
  graph::VertexId u = 0;
  graph::VertexId v = 0;
  graph::TimeFrame t = 0;
};

/// A temporal neighbourhood query: who are u's neighbours at frame t?
struct TemporalNodeQuery {
  graph::VertexId u = 0;
  graph::TimeFrame t = 0;
};

/// A maximal interval [begin, end] (inclusive frames) during which an edge
/// was continuously active — the "contact" of Caro et al.'s ck-d-trees
/// (§II) restricted to one edge.
struct ActivityInterval {
  graph::TimeFrame begin = 0;
  graph::TimeFrame end = 0;
  friend constexpr bool operator==(const ActivityInterval&,
                                   const ActivityInterval&) = default;
};

class DifferentialTcsr {
 public:
  DifferentialTcsr() = default;

  /// Builds from a (t, u, v)-sorted event list with `num_threads`
  /// processors (Algorithm 5). num_nodes/num_frames == 0 means derive from
  /// the input.
  static DifferentialTcsr build(const graph::TemporalEdgeList& events,
                                graph::VertexId num_nodes,
                                graph::TimeFrame num_frames, int num_threads,
                                TcsrBuildTimings* timings = nullptr);

  /// Reassembles from already-built per-frame deltas (deserialization).
  static DifferentialTcsr from_parts(graph::VertexId num_nodes,
                                     std::vector<csr::BitPackedCsr> deltas) {
    DifferentialTcsr tcsr;
    tcsr.num_nodes_ = num_nodes;
    tcsr.deltas_ = std::move(deltas);
    return tcsr;
  }

  [[nodiscard]] graph::VertexId num_nodes() const { return num_nodes_; }
  [[nodiscard]] graph::TimeFrame num_frames() const {
    return static_cast<graph::TimeFrame>(deltas_.size());
  }

  /// Total state-change edges stored across all frames.
  [[nodiscard]] std::size_t num_delta_edges() const;

  /// The bit-packed delta CSR of frame t.
  [[nodiscard]] const csr::BitPackedCsr& delta(graph::TimeFrame t) const {
    PCQ_DCHECK(t < deltas_.size());
    return deltas_[t];
  }

  /// Payload footprint across all frames.
  [[nodiscard]] std::size_t size_bytes() const;

  // --- temporal queries (Section V algorithms lifted to frames) -----------

  /// Parity of (u, v) occurrences in delta frames 0..t — active iff odd.
  /// One packed binary search per non-empty row of u, O(log degree) probes
  /// each; the searches of up to 64 frames advance in lockstep, one probe
  /// per row per pass, so their loads overlap.
  [[nodiscard]] bool edge_active(graph::VertexId u, graph::VertexId v,
                                 graph::TimeFrame t) const;

  /// Active neighbours of u at frame t, ascending. Decodes u's rows of
  /// frames 0..t back to back (S entries), sorts them (a radix sort over
  /// the column width once S is not small) and keeps each value that
  /// occurs an odd number of times: O(S) work.
  [[nodiscard]] std::vector<graph::VertexId> neighbors_at(
      graph::VertexId u, graph::TimeFrame t) const;

  /// Batch form of edge_active, parallel over queries (Algorithm 7/9
  /// applied to the temporal structure).
  [[nodiscard]] std::vector<std::uint8_t> batch_edge_active(
      std::span<const TemporalEdgeQuery> queries, int num_threads) const;

  /// Batch form of neighbors_at, parallel over queries (the temporal
  /// Algorithm 6); each chunk of queries reuses one set of scratch buffers.
  [[nodiscard]] std::vector<std::vector<graph::VertexId>> batch_neighbors_at(
      std::span<const TemporalNodeQuery> queries, int num_threads) const;

  /// Was (u, v) active at ANY frame in [t_begin, t_end]? One parity pass.
  [[nodiscard]] bool edge_active_in_window(graph::VertexId u,
                                           graph::VertexId v,
                                           graph::TimeFrame t_begin,
                                           graph::TimeFrame t_end) const;

  /// All maximal activity intervals of (u, v) over the whole history,
  /// in chronological order.
  [[nodiscard]] std::vector<ActivityInterval> activity_intervals(
      graph::VertexId u, graph::VertexId v) const;

  /// Full snapshot at frame t via the parallel prefix-XOR over frames
  /// 0..t (chunked Algorithm 1 schedule, symmetric-difference monoid).
  [[nodiscard]] csr::CsrGraph snapshot_at(graph::TimeFrame t,
                                          int num_threads) const;

  /// Snapshots at *every* frame 0..num_frames-1 in one parallel scan —
  /// the workload Figure 5 illustrates.
  [[nodiscard]] std::vector<SortedEdgeSet> all_snapshots(int num_threads) const;

 private:
  graph::VertexId num_nodes_ = 0;
  std::vector<csr::BitPackedCsr> deltas_;
};

}  // namespace pcq::tcsr
