// pcq::dyn::HybridGraph — a bit-packed CSR base with a CPMA mutable tier.
//
// §II names CSR's static format as its weakness. This keeps the bulk of
// the graph in the paper's bit-packed CSR and buffers mutations in the
// batch-parallel, delta-compressed, snapshot-readable Cpma; queries see
// base XOR buffer. Ingest scales across cores, and queries keep running
// against a pinned (base, delta) pair while batches land.
//
// Parity rule (the one the Section IV time frames use): a key present in
// the delta *toggles* the base. add_edges/remove_edges translate intent
// into toggles against the current base — adding an edge the base already
// has erases its pending-removal key (if any) instead of inserting, and
// vice versa — so the delta never accumulates no-ops and the visible edge
// set is always base ⊕ delta.
//
// Consistency: every mutation publishes one immutable State holding the
// base (shared_ptr) and the delta epoch (Cpma::Snapshot) together. A View
// pins one State, so a reader can never observe a base from before a
// compaction paired with a delta from after it (or vice versa) — the
// failure mode a naive "two separate atomics" design would have.
//
// Compaction: when the delta outgrows `compact_ratio` of the base, the
// visible edge set is materialised in parallel (per-node symmetric
// difference + prefix-sum layout) and re-packed with the paper's CSR
// pipeline; the delta resets to empty. Readers are never blocked — only
// writers wait (on the same mutex mutations use). maybe_compact() is the
// opportunistic entry point service shards call after a mutation batch;
// it skips out immediately when another thread is already compacting.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "csr/bitpacked_csr.hpp"
#include "dyn/cpma.hpp"
#include "graph/edge_list.hpp"
#include "util/thread_annotations.hpp"

namespace pcq::dyn {

class HybridGraph {
 public:
  struct Config {
    Cpma::Config cpma;
    /// Compact when delta keys exceed this fraction of base edges...
    double compact_ratio = 0.25;
    /// ...but never below this absolute key count (tiny graphs would
    /// otherwise recompress on every batch).
    std::size_t compact_min_keys = 4096;
  };

  /// One immutable (base, delta) pair. version increments on every
  /// mutation batch and every compaction.
  struct State {
    std::shared_ptr<const csr::BitPackedCsr> base;
    Cpma::Snapshot delta;
    std::size_t num_edges = 0;  ///< |base ⊕ delta|, maintained by writers
    std::uint64_t version = 0;
  };
  using StatePtr = std::shared_ptr<const State>;

  /// A pinned State: answers are mutually consistent and stable for the
  /// View's lifetime, concurrent with any number of mutations/compactions.
  class View {
   public:
    View() = default;
    explicit View(StatePtr state) : state_(std::move(state)) {}

    [[nodiscard]] bool valid() const { return state_ != nullptr; }
    [[nodiscard]] const csr::BitPackedCsr& base() const {
      return *state_->base;
    }
    [[nodiscard]] const Cpma::Snapshot& delta() const { return state_->delta; }
    [[nodiscard]] graph::VertexId num_nodes() const {
      return state_->base->num_nodes();
    }
    [[nodiscard]] std::size_t num_edges() const { return state_->num_edges; }
    [[nodiscard]] std::uint64_t version() const { return state_->version; }

    /// base ⊕ delta membership.
    [[nodiscard]] bool has_edge(graph::VertexId u, graph::VertexId v) const;

    /// Visible degree of u. Fast path: base degree when u's delta row is
    /// empty; otherwise counts the toggles against the packed base row.
    [[nodiscard]] std::uint32_t degree(graph::VertexId u) const;

    /// Visible neighbour row, ascending (symmetric difference of the base
    /// row and u's delta row).
    [[nodiscard]] std::vector<graph::VertexId> neighbors(graph::VertexId u)
        const;

   private:
    StatePtr state_;
  };

  explicit HybridGraph(csr::BitPackedCsr base)
      : HybridGraph(std::move(base), Config()) {}
  HybridGraph(csr::BitPackedCsr base, Config config);

  /// Pins the current State (one atomic load; wait-free).
  [[nodiscard]] View view() const { return View(load_state()); }

  /// A View over a caller-owned CSR whose delta is empty and never
  /// changes: a read-only graph behind the same interface as a live one.
  /// Neither copies nor owns `base`, which must outlive the View and all
  /// its copies; records nothing in the metrics registry.
  [[nodiscard]] static View frozen_view(const csr::BitPackedCsr& base);

  [[nodiscard]] graph::VertexId num_nodes() const {
    return load_state()->base->num_nodes();
  }
  [[nodiscard]] std::size_t num_edges() const {
    return load_state()->num_edges;
  }
  [[nodiscard]] std::size_t delta_keys() const {
    return load_state()->delta.size();
  }

  /// Batch edge addition. Duplicates within the batch collapse to one
  /// attempt (first occurrence wins the changed flag). Endpoints must be
  /// < num_nodes(). Returns the number of edges that actually became
  /// visible; `changed` (optional) gets one flag per input edge.
  std::size_t add_edges(std::span<const graph::Edge> edges, int num_threads,
                        std::vector<std::uint8_t>* changed = nullptr)
      PCQ_EXCLUDES(write_mu_);

  /// Batch edge removal (symmetric). Returns edges actually hidden.
  std::size_t remove_edges(std::span<const graph::Edge> edges,
                           int num_threads,
                           std::vector<std::uint8_t>* changed = nullptr)
      PCQ_EXCLUDES(write_mu_);

  /// True when the delta has outgrown the configured ratio of the base.
  [[nodiscard]] bool needs_compaction() const;

  /// Folds base ⊕ delta into a fresh bit-packed CSR and resets the delta.
  /// Blocks other writers; readers keep their pinned Views. Returns false
  /// when the delta was already empty.
  bool compact(int num_threads) PCQ_EXCLUDES(write_mu_);

  /// compact() iff needs_compaction(), skipping out when another thread
  /// is already inside — the shard-worker entry point: at most one
  /// compaction runs while the others keep absorbing batches.
  bool maybe_compact(int num_threads) PCQ_EXCLUDES(write_mu_);

 private:
  [[nodiscard]] StatePtr load_state() const {
    return std::atomic_load_explicit(&state_, std::memory_order_acquire);
  }
  void publish(StatePtr next) {
    std::atomic_store_explicit(&state_, std::move(next),
                               std::memory_order_release);
  }

  /// Shared batch path: splits intents into CPMA inserts/erases against
  /// the current base and publishes one new State. `add` selects
  /// add_edges vs remove_edges polarity.
  std::size_t apply_edges(std::span<const graph::Edge> edges, bool add,
                          int num_threads,
                          std::vector<std::uint8_t>* changed)
      PCQ_EXCLUDES(write_mu_);

  Config config_;
  Cpma cpma_;
  // pcq:epoch-published — mutate only via std::atomic_store_explicit /
  // atomic_exchange (the lint enforces it); plain assignment would race
  // every concurrent load_state().
  StatePtr state_;
  util::Mutex write_mu_;
  std::atomic<bool> compacting_{false};
};

}  // namespace pcq::dyn
