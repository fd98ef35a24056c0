#include "graph/edge_list.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "par/radix_sort.hpp"
#include "par/reduce.hpp"

namespace pcq::graph {

namespace {

/// Stable radix sort of `edges` by (u, v) on the key (u << w) | v, where w
/// is the bit width of the largest v. The key ranks pairs as (u, v)
/// compares them and fits 64 bits for any 32-bit ids (w <= 32); the radix
/// sort skips the digits above its top bit, so small ids cost fewer
/// passes than a fixed u << 32.
template <typename E>
void sort_by_source_dest(std::span<E> edges, int num_threads) {
  const E widest = pcq::par::parallel_reduce(
      std::span<const E>(edges), E{}, num_threads, [](E acc, const E& e) {
        acc.v = std::max(acc.v, e.v);
        return acc;
      });
  const int w = std::bit_width(widest.v);
  pcq::par::parallel_radix_sort(edges, num_threads, [w](const E& e) {
    return (std::uint64_t{e.u} << w) | e.v;
  });
}

}  // namespace

VertexId EdgeList::num_nodes() const {
  if (edges_.empty()) return 0;
  VertexId max_id = 0;
  for (const Edge& e : edges_) max_id = std::max({max_id, e.u, e.v});
  return max_id + 1;
}

std::size_t EdgeList::text_size_bytes() const {
  auto digits = [](VertexId v) {
    std::size_t d = 1;
    while (v >= 10) {
      v /= 10;
      ++d;
    }
    return d;
  };
  std::size_t bytes = 0;
  for (const Edge& e : edges_) bytes += digits(e.u) + digits(e.v) + 2;
  return bytes;
}

void EdgeList::sort(int num_threads) {
  sort_by_source_dest(std::span<Edge>(edges_), num_threads);
}

bool EdgeList::is_sorted() const {
  return std::is_sorted(edges_.begin(), edges_.end());
}

void EdgeList::dedupe() {
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
}

void EdgeList::remove_self_loops() {
  edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                              [](const Edge& e) { return e.u == e.v; }),
               edges_.end());
}

void EdgeList::symmetrize() {
  const std::size_t n = edges_.size();
  edges_.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i)
    edges_.push_back({edges_[i].v, edges_[i].u});
}

void EdgeList::to_upper_triangle() {
  for (Edge& e : edges_)
    if (e.u > e.v) std::swap(e.u, e.v);
  std::sort(edges_.begin(), edges_.end());
  dedupe();
  remove_self_loops();
}

VertexId TemporalEdgeList::num_nodes() const {
  if (edges_.empty()) return 0;
  VertexId max_id = 0;
  for (const TemporalEdge& e : edges_) max_id = std::max({max_id, e.u, e.v});
  return max_id + 1;
}

TimeFrame TemporalEdgeList::num_frames() const {
  if (edges_.empty()) return 0;
  TimeFrame max_t = 0;
  for (const TemporalEdge& e : edges_) max_t = std::max(max_t, e.t);
  return max_t + 1;
}

void TemporalEdgeList::sort(int num_threads) {
  // Both passes are stable, so sorting by t last keeps (u, v) order
  // within each frame.
  const std::span<TemporalEdge> events(edges_);
  sort_by_source_dest(events, num_threads);
  pcq::par::parallel_radix_sort(events, num_threads, [](const TemporalEdge& e) {
    return std::uint64_t{e.t};
  });
}

bool TemporalEdgeList::is_sorted() const {
  return std::is_sorted(edges_.begin(), edges_.end(), TimeSourceOrder{});
}

}  // namespace pcq::graph
