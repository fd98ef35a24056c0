#include "tcsr/tcsr.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "csr/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/chunking.hpp"
#include "par/parallel_for.hpp"
#include "par/prefix_sum.hpp"
#include "par/radix_sort.hpp"
#include "tcsr/frame_builder.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pcq::tcsr {

using graph::Edge;
using graph::TemporalEdgeList;
using graph::TimeFrame;
using graph::VertexId;

DifferentialTcsr DifferentialTcsr::build(const TemporalEdgeList& events,
                                         VertexId num_nodes,
                                         TimeFrame num_frames, int num_threads,
                                         TcsrBuildTimings* timings) {
  PCQ_CHECK_MSG(events.is_sorted(), "TCSR input must be (t, u, v)-sorted");
  if (num_nodes == 0) num_nodes = events.num_nodes();
  if (num_frames == 0) num_frames = events.num_frames();

  DifferentialTcsr tcsr;
  tcsr.num_nodes_ = num_nodes;
  if (num_frames == 0) return tcsr;
  pcq::obs::MetricsRegistry::global().counter("tcsr.builds").add(1);

  pcq::util::Timer timer;
  // Algorithm 5 steps 1-2: locate frame slices (overlap merge included).
  std::vector<std::uint64_t> offsets;
  {
    PCQ_TRACE_SCOPE("tcsr.frame_split", num_frames);
    offsets = frame_offsets(events, num_frames, num_threads);
  }
  if (timings) timings->frame_split = timer.seconds();

  // Step 3: per-frame differential CSRs (frame_builder handles the parity
  // cancellation that makes each frame a pure state-change set).
  timer.restart();
  std::vector<csr::CsrGraph> frames;
  {
    PCQ_TRACE_SCOPE("tcsr.frame_build", num_frames);
    frames =
        build_frame_csrs(events, num_nodes, num_frames, num_threads, &offsets);
  }
  if (timings) timings->frame_build = timer.seconds();

  // Step 4: bit-pack every frame (Algorithm 4). Frames are independent, so
  // parallelism is over frames; each pack call runs single-threaded.
  timer.restart();
  tcsr.deltas_.resize(num_frames);
  {
    PCQ_TRACE_SCOPE("tcsr.pack", num_frames);
    pcq::par::parallel_for(num_frames, num_threads, [&](std::size_t t) {
      tcsr.deltas_[t] = csr::BitPackedCsr::from_csr(frames[t], 1);
    });
  }
  if (timings) timings->pack = timer.seconds();
  return tcsr;
}

std::size_t DifferentialTcsr::num_delta_edges() const {
  return std::accumulate(deltas_.begin(), deltas_.end(), std::size_t{0},
                         [](std::size_t acc, const csr::BitPackedCsr& d) {
                           return acc + d.num_edges();
                         });
}

std::size_t DifferentialTcsr::size_bytes() const {
  return std::accumulate(deltas_.begin(), deltas_.end(), std::size_t{0},
                         [](std::size_t acc, const csr::BitPackedCsr& d) {
                           return acc + d.size_bytes();
                         });
}

namespace {

/// Below this many gathered entries neighbors_at sorts with std::sort:
/// each radix pass zeroes and scans up to 2^11 counts, which a short
/// buffer does not repay (measured crossover: 32-64 entries of 18 bits).
constexpr std::size_t kRadixSortCutoff = 64;

/// Frames whose binary searches edge_active advances together; one
/// group's probe state stays on the stack whatever the frame count.
constexpr std::size_t kLockstepFrames = 64;

/// Leaves u's active neighbours at frame t, sorted, in `values`: gathers
/// u's rows of frames 0..t back to back, sorts them, and keeps each value
/// that occurs an odd number of times (§IV parity rule). O(S) work for S
/// gathered entries. `radix` is the radix sort's scratch; both buffers
/// keep their capacity for the next query.
void gather_active(const DifferentialTcsr& tcsr, VertexId u, TimeFrame t,
                   std::vector<VertexId>& values,
                   std::vector<VertexId>& radix) {
  PCQ_DCHECK(t < tcsr.num_frames());
  PCQ_DCHECK_MSG(u < tcsr.num_nodes(),
                 "temporal query node outside vertex range");
  values.clear();
  std::size_t rows = 0;
  unsigned key_bits = 1;
  for (TimeFrame f = 0; f <= t; ++f) {
    const csr::BitPackedCsr& d = tcsr.delta(f);
    const auto row = d.row_bounds(u);
    if (row.begin == row.end) continue;
    const pcq::bits::FixedWidthArray& columns = d.packed_columns();
    // Checked before the buffer grows: an unvalidated mapped frame's
    // offsets can be anything.
    PCQ_CHECK(row.begin < row.end && row.end <= columns.size());
    const std::size_t at = values.size();
    values.resize(at + static_cast<std::size_t>(row.end - row.begin));
    columns.get_range_into(row.begin, values.size() - at, values.data() + at);
    key_bits = std::max(key_bits, columns.width());
    ++rows;
  }
  // No row or one row is already the answer: validated rows are strictly
  // increasing.
  if (rows < 2) return;
  if (values.size() < kRadixSortCutoff)
    std::sort(values.begin(), values.end());
  else
    pcq::par::radix_sort_u32(values, key_bits, radix);
  // Equal values are adjacent now; each one cancels the kept copy before
  // it, so a run of k leaves k mod 2 copies (no branch on run lengths).
  std::size_t kept = 0;
  for (const VertexId x : values) {
    const bool pair = kept > 0 && values[kept - 1] == x;
    values[kept] = x;  // kept never passes the read position
    kept = pair ? kept - 1 : kept + 1;
  }
  values.resize(kept);
}

}  // namespace

bool DifferentialTcsr::edge_active(VertexId u, VertexId v, TimeFrame t) const {
  PCQ_DCHECK(t < deltas_.size());
  PCQ_DCHECK_MSG(u < num_nodes_, "temporal query node outside vertex range");
  // has_edge's binary search on every non-empty row of frames 0..t, but
  // the searches advance in lockstep: one probe per live row per pass, so
  // the probes' loads overlap instead of waiting on each other. Active iff
  // an odd number of rows hold v.
  struct Probe {
    const pcq::bits::FixedWidthArray* columns;
    std::uint64_t lo;
    std::uint64_t hi;
  };
  // Slots [0, live) are written before they are read.
  std::array<Probe, kLockstepFrames> probes;
  bool active = false;
  const std::size_t frames = std::size_t{t} + 1;
  for (std::size_t first = 0; first < frames; first += kLockstepFrames) {
    const std::size_t last = std::min(frames, first + kLockstepFrames);
    std::size_t live = 0;
    for (std::size_t f = first; f < last; ++f) {
      const auto row = deltas_[f].row_bounds(u);
      if (row.begin < row.end)
        probes[live++] = {&deltas_[f].packed_columns(), row.begin, row.end};
    }
    while (live > 0) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < live; ++i) {
        Probe p = probes[i];
        const std::uint64_t mid = p.lo + (p.hi - p.lo) / 2;
        const auto c = static_cast<VertexId>(p.columns->get(mid));
        if (c == v) {
          active = !active;
          continue;
        }
        if (c < v)
          p.lo = mid + 1;
        else
          p.hi = mid;
        if (p.lo < p.hi) probes[kept++] = p;
      }
      live = kept;
    }
  }
  return active;
}

std::vector<VertexId> DifferentialTcsr::neighbors_at(VertexId u,
                                                     TimeFrame t) const {
  std::vector<VertexId> values;
  std::vector<VertexId> radix;
  gather_active(*this, u, t, values, radix);
  return values;
}

std::vector<std::uint8_t> DifferentialTcsr::batch_edge_active(
    std::span<const TemporalEdgeQuery> queries, int num_threads) const {
  std::vector<std::uint8_t> result(queries.size(), 0);
  pcq::par::parallel_for_chunks(
      queries.size(), num_threads, [&](std::size_t, pcq::par::ChunkRange r) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          const auto& q = queries[i];
          result[i] = edge_active(q.u, q.v, q.t) ? 1 : 0;
        }
      });
  return result;
}

std::vector<std::vector<VertexId>> DifferentialTcsr::batch_neighbors_at(
    std::span<const TemporalNodeQuery> queries, int num_threads) const {
  std::vector<std::vector<VertexId>> result(queries.size());
  pcq::par::parallel_for_chunks(
      queries.size(), num_threads, [&](std::size_t, pcq::par::ChunkRange r) {
        std::vector<VertexId> values;  // one scratch per chunk
        std::vector<VertexId> radix;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          gather_active(*this, queries[i].u, queries[i].t, values, radix);
          result[i].assign(values.begin(), values.end());
        }
      });
  return result;
}

bool DifferentialTcsr::edge_active_in_window(VertexId u, VertexId v,
                                             TimeFrame t_begin,
                                             TimeFrame t_end) const {
  PCQ_CHECK(t_begin <= t_end && t_end < deltas_.size());
  bool active = false;
  for (TimeFrame f = 0; f <= t_end; ++f) {
    if (deltas_[f].has_edge(u, v)) active = !active;
    if (f >= t_begin && active) return true;
  }
  return false;
}

std::vector<ActivityInterval> DifferentialTcsr::activity_intervals(
    VertexId u, VertexId v) const {
  std::vector<ActivityInterval> intervals;
  bool active = false;
  TimeFrame begin = 0;
  const auto frames = static_cast<TimeFrame>(deltas_.size());
  for (TimeFrame f = 0; f < frames; ++f) {
    if (!deltas_[f].has_edge(u, v)) continue;
    if (!active) {
      active = true;
      begin = f;
    } else {
      active = false;
      intervals.push_back({begin, f - 1});
    }
  }
  if (active) intervals.push_back({begin, frames - 1});
  return intervals;
}

namespace {

/// Streams a packed delta straight into a sorted edge vector (row cursors,
/// no intermediate CsrGraph).
std::vector<Edge> delta_edges(const csr::BitPackedCsr& delta) {
  std::vector<Edge> edges;
  edges.reserve(delta.num_edges());
  for (VertexId u = 0; u < delta.num_nodes(); ++u)
    for (std::uint64_t v : delta.row_cursor(u))
      edges.push_back({u, static_cast<VertexId>(v)});
  return edges;
}

}  // namespace

std::vector<SortedEdgeSet> DifferentialTcsr::all_snapshots(
    int num_threads) const {
  const std::size_t frames = deltas_.size();
  std::vector<SortedEdgeSet> sets(frames);
  // Materialise each delta as a sorted edge set...
  pcq::par::parallel_for(frames, num_threads, [&](std::size_t t) {
    sets[t] = SortedEdgeSet::from_sorted(delta_edges(deltas_[t]));
  });
  // ...then run the paper's chunked prefix-sum schedule with the
  // symmetric-difference monoid: sets[t] becomes the snapshot at frame t.
  {
    PCQ_TRACE_SCOPE("tcsr.differential_scan", frames);
    pcq::par::chunked_inclusive_scan(std::span<SortedEdgeSet>(sets),
                                     num_threads, SymmetricDifferenceOp{});
  }
  return sets;
}

csr::CsrGraph DifferentialTcsr::snapshot_at(TimeFrame t,
                                            int num_threads) const {
  PCQ_CHECK(t < deltas_.size());
  // Scan only the prefix 0..t, then convert the accumulated set to CSR.
  std::vector<SortedEdgeSet> sets(t + 1);
  pcq::par::parallel_for(static_cast<std::size_t>(t) + 1, num_threads,
                         [&](std::size_t f) {
                           sets[f] = SortedEdgeSet::from_sorted(
                               delta_edges(deltas_[f]));
                         });
  {
    PCQ_TRACE_SCOPE("tcsr.differential_scan", sets.size());
    pcq::par::chunked_inclusive_scan(std::span<SortedEdgeSet>(sets),
                                     num_threads, SymmetricDifferenceOp{});
  }
  graph::EdgeList list(std::move(sets[t]).take());
  return csr::build_csr_sequential(list, num_nodes_);
}

}  // namespace pcq::tcsr
