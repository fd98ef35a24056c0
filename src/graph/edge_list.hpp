// EdgeList — the raw input representation every pipeline starts from.
//
// Matches the paper's input model: a flat list of (u, v) pairs, possibly
// on disk in SNAP text format, which is sorted by source node before CSR
// construction. Size accounting matches the paper's Table II "EdgeList
// Size" column (8 bytes per edge: two 32-bit endpoints).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace pcq::graph {

class EdgeList {
 public:
  EdgeList() = default;
  explicit EdgeList(std::vector<Edge> edges) : edges_(std::move(edges)) {}

  [[nodiscard]] std::size_t size() const { return edges_.size(); }
  [[nodiscard]] bool empty() const { return edges_.empty(); }
  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }
  [[nodiscard]] std::span<Edge> mutable_edges() { return edges_; }

  void push_back(Edge e) { edges_.push_back(e); }
  void reserve(std::size_t n) { edges_.reserve(n); }

  /// 1 + the largest vertex id referenced (0 for an empty list).
  [[nodiscard]] VertexId num_nodes() const;

  /// In-memory footprint of the raw binary pairs (8 bytes/edge).
  [[nodiscard]] std::size_t size_bytes() const { return edges_.size() * sizeof(Edge); }

  /// Exact on-disk size of the list in SNAP text format ("u\tv\n" per
  /// edge) — the unit of Table II's "EdgeList Size" column (~16 bytes/edge
  /// on the paper's graphs).
  [[nodiscard]] std::size_t text_size_bytes() const;

  /// Sorts by (u, v) with `num_threads` — the precondition of the parallel
  /// degree computation (Algorithm 2 requires source-sorted chunks).
  /// Parallel LSD radix sort on a packed (u, v) key as wide as the ids
  /// need (see bench_sort).
  void sort(int num_threads);

  /// True if sorted by (u, v).
  [[nodiscard]] bool is_sorted() const;

  /// Removes duplicate edges (requires sorted input).
  void dedupe();

  /// Removes self-loops u == u.
  void remove_self_loops();

  /// Adds the reverse of every edge (directed list -> undirected adjacency).
  /// Does not sort or dedupe.
  void symmetrize();

  /// Keeps only edges with u < v — the paper's Figure 1 stores the upper
  /// triangle of the symmetric adjacency matrix.
  void to_upper_triangle();

 private:
  std::vector<Edge> edges_;
};

/// Flat list of temporal events, time-sorted per §IV before TCSR builds.
class TemporalEdgeList {
 public:
  TemporalEdgeList() = default;
  explicit TemporalEdgeList(std::vector<TemporalEdge> edges)
      : edges_(std::move(edges)) {}

  [[nodiscard]] std::size_t size() const { return edges_.size(); }
  [[nodiscard]] bool empty() const { return edges_.empty(); }
  [[nodiscard]] std::span<const TemporalEdge> edges() const { return edges_; }

  void push_back(TemporalEdge e) { edges_.push_back(e); }
  void reserve(std::size_t n) { edges_.reserve(n); }

  [[nodiscard]] VertexId num_nodes() const;

  /// 1 + the largest time-frame referenced (0 for an empty list).
  [[nodiscard]] TimeFrame num_frames() const;

  [[nodiscard]] std::size_t size_bytes() const {
    return edges_.size() * sizeof(TemporalEdge);
  }

  /// Sorts by (t, u, v) — the §IV input assumption: the (u, v) radix sort
  /// of EdgeList::sort, then a stable radix pass by t.
  void sort(int num_threads);

  [[nodiscard]] bool is_sorted() const;

 private:
  std::vector<TemporalEdge> edges_;
};

}  // namespace pcq::graph
