// PCSR-lite: a Packed Memory Array edge store.
//
// §II describes PCSR [9] / PPCSR [13]: CSR whose edge array is replaced by
// a Packed Memory Array [10][11] — a sorted array with evenly spread gaps
// that supports O(log² N) amortised inserts without shifting everything.
// This is the related-work cure for the static-CSR weakness. pcq's own
// mutable tier is dyn::HybridGraph (src/dyn); this store stays as its
// uncompressed-PMA comparator, which bench_dyn sets beside it for ingest
// and point has_edge.
//
// Edges are stored as packed 64-bit keys (u << 32 | v) in a PMA whose leaf
// segments hold Θ(log N) slots. Per-segment minima and counts accelerate
// the search; inserts that overflow a segment rebalance the smallest
// enclosing window still under its density threshold (doubling the array
// when even the root is over). Neighbour queries scan the key range
// [u << 32, (u + 1) << 32).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.hpp"

namespace pcq::csr {

class PmaCsr {
 public:
  /// Empty store sized for a few edges.
  PmaCsr();

  /// Bulk load from a (u, v)-sorted duplicate-free edge list at 50%
  /// density.
  explicit PmaCsr(const graph::EdgeList& sorted);

  [[nodiscard]] std::size_t num_edges() const { return count_; }

  /// Inserts (u, v); returns false (no change) if already present.
  bool add_edge(graph::VertexId u, graph::VertexId v);

  /// Removes (u, v); returns false if absent.
  bool remove_edge(graph::VertexId u, graph::VertexId v);

  [[nodiscard]] bool has_edge(graph::VertexId u, graph::VertexId v) const;

  /// u's neighbours, ascending.
  [[nodiscard]] std::vector<graph::VertexId> neighbors(graph::VertexId u) const;

  /// All edges in sorted order (testing / conversion back to EdgeList).
  [[nodiscard]] std::vector<graph::Edge> to_edges() const;

  /// Slot array + per-segment directories.
  [[nodiscard]] std::size_t size_bytes() const;

  /// Invariant checker used by tests: slots sorted (ignoring gaps),
  /// directories consistent, densities within root bounds.
  [[nodiscard]] bool check_invariants() const;

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  static std::uint64_t key_of(graph::VertexId u, graph::VertexId v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  [[nodiscard]] std::size_t num_segments() const {
    return slots_.size() / segment_size_;
  }
  [[nodiscard]] unsigned tree_height() const;

  /// Max/min density for a window at `level` (0 = leaf segment).
  [[nodiscard]] double max_density(unsigned level) const;
  [[nodiscard]] double min_density(unsigned level) const;

  /// Segment that should contain `key` (last segment with min <= key).
  [[nodiscard]] std::size_t find_segment(std::uint64_t key) const;

  /// Index of `key` within the slot array, or SIZE_MAX.
  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const;

  /// Inserts key into segment `seg` (which has room), keeping order.
  void insert_into_segment(std::size_t seg, std::uint64_t key);

  /// Evenly redistributes the elements of segments [first, last) in place.
  void redistribute(std::size_t first_seg, std::size_t last_seg);

  /// Grows (factor 2) or shrinks (factor 1/2) and redistributes globally.
  void resize_capacity(std::size_t new_capacity);

  void rebuild_directory(std::size_t first_seg, std::size_t last_seg);

  std::vector<std::uint64_t> slots_;     ///< sorted keys with kEmpty gaps
  std::vector<std::uint64_t> seg_min_;   ///< first key per segment (kEmpty if none)
  std::vector<std::uint32_t> seg_count_; ///< live keys per segment
  std::size_t segment_size_ = 8;
  std::size_t count_ = 0;
};

}  // namespace pcq::csr
