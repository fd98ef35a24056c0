// Request/response vocabulary of the pcq::svc batch query service.
//
// The paper's Section V algorithms answer *pre-collected* query arrays;
// a serving layer receives queries one at a time. One Request describes a
// single query of any supported kind; the service coalesces requests into
// per-kind batches and answers each batch in one parallel loop — over a
// pinned dyn::HybridGraph::View for the structural kinds (Algorithms 6/7),
// over the TCSR (tcsr/tcsr.hpp) for the temporal ones.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "graph/types.hpp"

namespace pcq::svc {

using Clock = std::chrono::steady_clock;

enum class QueryKind : std::uint8_t {
  kDegree,           ///< degree(u)
  kNeighbors,        ///< Alg. 6 — neighbour row of u
  kEdgeExists,       ///< Alg. 7 — is (u, v) present?
  kTemporalEdge,     ///< is (u, v) active at frame t? (TCSR parity query)
  kTemporalNeighbors,///< neighbours of u at frame t (temporal Alg. 6)
  kForemostArrival,  ///< earliest frame >= t at which v is reachable from u
  // Mutation kinds (dynamic services only; kUnsupported otherwise). Each
  // request carries one (u, v) edge; the shard loop coalesces a batch's
  // mutations into one HybridGraph::add_edges/remove_edges call, so the
  // CPMA absorbs them batch-parallel just like queries hit batch kernels.
  kAddEdges,         ///< make (u, v) visible
  kRemoveEdges,      ///< make (u, v) invisible
};

/// True for the kinds that mutate the graph instead of reading it.
inline constexpr bool is_mutation_kind(QueryKind kind) {
  return kind == QueryKind::kAddEdges || kind == QueryKind::kRemoveEdges;
}

/// One query. `u` is always the primary node (also the shard-routing key);
/// `v` is the target for edge/journey kinds; `t` the time-frame for
/// temporal kinds (start frame for kForemostArrival).
struct Request {
  QueryKind kind = QueryKind::kDegree;
  graph::VertexId u = 0;
  graph::VertexId v = 0;
  graph::TimeFrame t = 0;
  /// Absolute completion deadline. A request still queued past its
  /// deadline is answered kExpired without touching the graph (admission
  /// control under overload). Clock::time_point::max() = no deadline.
  Clock::time_point deadline = Clock::time_point::max();
  /// Caller-assigned id threaded through the shard queue into the slow-query
  /// log and per-request trace spans (the net front-end puts the wire
  /// request id here). 0 = unidentified; spans are still recorded.
  std::uint64_t trace_id = 0;
};

enum class Status : std::uint8_t {
  kOk,
  kRejected,     ///< bounded queue was full, or service already stopped
  kExpired,      ///< deadline passed while queued
  kInvalid,      ///< node/frame out of range for the loaded graph
  /// Temporal query but no TCSR loaded, or a mutation on a read-only
  /// (BitPackedCsr) service.
  kUnsupported,
};

/// Answer to one Request. Which payload field is meaningful depends on the
/// request kind; `latency` is enqueue-to-completion (what the histograms
/// record).
struct Response {
  Status status = Status::kOk;
  /// kEdgeExists / kTemporalEdge; for mutation kinds: true iff the edge's
  /// visibility actually changed (false = the mutation was a no-op).
  bool exists = false;
  std::uint32_t degree = 0;                  ///< kDegree
  graph::TimeFrame arrival = 0;              ///< kForemostArrival
  std::vector<graph::VertexId> neighbors;    ///< kNeighbors / kTemporalNeighbors
  std::chrono::nanoseconds latency{0};
};

/// Completion callback; invoked exactly once per accepted request, on a
/// service worker thread. Must be cheap and must not call back into the
/// service synchronously (it runs inside the batch completion loop).
using Callback = std::function<void(Response&&)>;

}  // namespace pcq::svc
