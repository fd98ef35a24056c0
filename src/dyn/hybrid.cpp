#include "dyn/hybrid.hpp"

#include <algorithm>
#include <chrono>

#include "csr/builder.hpp"
#include "csr/query.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/parallel_for.hpp"
#include "util/check.hpp"

namespace pcq::dyn {

namespace {

using Clock = std::chrono::steady_clock;

struct ObsHandles {
  obs::Counter& add_batches;
  obs::Counter& remove_batches;
  obs::Counter& compactions;
  obs::LogHistogram& compaction_us;
  obs::Gauge& delta_keys;
  obs::Gauge& edges;

  static ObsHandles& get() {
    auto& reg = obs::MetricsRegistry::global();
    static ObsHandles h{reg.counter("dyn.hybrid.add_batches"),
                        reg.counter("dyn.hybrid.remove_batches"),
                        reg.counter("dyn.hybrid.compactions"),
                        reg.histogram("dyn.hybrid.compaction_us"),
                        reg.gauge("dyn.hybrid.delta_keys"),
                        reg.gauge("dyn.hybrid.edges")};
    return h;
  }
};

/// Symmetric difference of a sorted base row and a sorted delta row.
void xor_rows(std::span<const graph::VertexId> base_row,
              std::span<const graph::VertexId> delta_row,
              std::vector<graph::VertexId>& out) {
  out.clear();
  out.reserve(base_row.size() + delta_row.size());
  std::set_symmetric_difference(base_row.begin(), base_row.end(),
                                delta_row.begin(), delta_row.end(),
                                std::back_inserter(out));
}

}  // namespace

bool HybridGraph::View::has_edge(graph::VertexId u, graph::VertexId v) const {
  const bool in_base = state_->base->has_edge(u, v);
  if (state_->delta.empty()) return in_base;
  return in_base != state_->delta.contains(key_of(u, v));
}

std::uint32_t HybridGraph::View::degree(graph::VertexId u) const {
  const std::uint32_t base_deg = state_->base->degree(u);
  if (state_->delta.empty()) return base_deg;
  const std::vector<graph::VertexId> toggles = state_->delta.row(u);
  if (toggles.empty()) return base_deg;
  std::uint32_t deg = base_deg;
  for (const graph::VertexId v : toggles) {
    if (state_->base->has_edge(u, v))
      --deg;
    else
      ++deg;
  }
  return deg;
}

std::vector<graph::VertexId> HybridGraph::View::neighbors(
    graph::VertexId u) const {
  std::vector<graph::VertexId> base_row = state_->base->neighbors(u);
  if (state_->delta.empty()) return base_row;
  const std::vector<graph::VertexId> toggles = state_->delta.row(u);
  if (toggles.empty()) return base_row;
  std::vector<graph::VertexId> out;
  xor_rows(base_row, toggles, out);
  return out;
}

HybridGraph::View HybridGraph::frozen_view(const csr::BitPackedCsr& base) {
  auto state = std::make_shared<State>();
  // Aliasing constructor over an empty owner: a non-owning pointer.
  state->base = std::shared_ptr<const csr::BitPackedCsr>(
      std::shared_ptr<const csr::BitPackedCsr>(), &base);
  state->delta = Cpma().snapshot();
  state->num_edges = base.num_edges();
  return View(std::move(state));
}

HybridGraph::HybridGraph(csr::BitPackedCsr base, Config config)
    : config_(config), cpma_(config.cpma) {
  auto state = std::make_shared<State>();
  state->base = std::make_shared<const csr::BitPackedCsr>(std::move(base));
  state->delta = cpma_.snapshot();
  state->num_edges = state->base->num_edges();
  publish(std::move(state));
  ObsHandles::get().edges.set(static_cast<std::int64_t>(num_edges()));
}

std::size_t HybridGraph::add_edges(std::span<const graph::Edge> edges,
                                   int num_threads,
                                   std::vector<std::uint8_t>* changed) {
  return apply_edges(edges, /*add=*/true, num_threads, changed);
}

std::size_t HybridGraph::remove_edges(std::span<const graph::Edge> edges,
                                      int num_threads,
                                      std::vector<std::uint8_t>* changed) {
  return apply_edges(edges, /*add=*/false, num_threads, changed);
}

std::size_t HybridGraph::apply_edges(std::span<const graph::Edge> edges,
                                     bool add, int num_threads,
                                     std::vector<std::uint8_t>* changed) {
  PCQ_TRACE_SCOPE("dyn.hybrid.apply_edges", edges.size());
  if (changed != nullptr) changed->assign(edges.size(), 0);
  if (edges.empty()) return 0;

  util::MutexLock lock(write_mu_);
  const StatePtr old = load_state();
  const csr::BitPackedCsr& base = *old->base;
  const graph::VertexId limit = base.num_nodes();
  for (const graph::Edge& e : edges)
    PCQ_CHECK(e.u < limit && e.v < limit);

  // Collapse the batch to sorted unique keys; the base membership of each
  // unique key decides its toggle polarity (see the parity rule in the
  // header).
  std::vector<Key> unique(edges.size());
  par::parallel_for(edges.size(), num_threads, [&](std::size_t i) {
    unique[i] = key_of(edges[i].u, edges[i].v);
  });
  Cpma::normalize_batch(unique, num_threads);

  std::vector<graph::Edge> unique_edges(unique.size());
  par::parallel_for(unique.size(), num_threads, [&](std::size_t i) {
    unique_edges[i] = {key_u(unique[i]), key_v(unique[i])};
  });
  std::vector<std::uint8_t> in_base(unique.size(), 0);
  csr::batch_edge_existence_into(base, unique_edges, in_base, num_threads,
                                 csr::RowSearch::kBinary);

  // add:    in base  -> erase pending-removal key; absent -> insert key.
  // remove: in base  -> insert pending-removal key; absent -> erase key.
  std::vector<Key> inserts, erases;
  for (std::size_t i = 0; i < unique.size(); ++i) {
    const bool wants_insert = add != (in_base[i] != 0);
    (wants_insert ? inserts : erases).push_back(unique[i]);
  }

  std::vector<std::uint8_t> chg_ins, chg_ers;
  const Cpma::ApplyResult res = cpma_.apply_batch(
      inserts, erases, num_threads, changed != nullptr ? &chg_ins : nullptr,
      changed != nullptr ? &chg_ers : nullptr);
  const std::size_t applied = res.inserted + res.erased;

  if (changed != nullptr && applied > 0) {
    // Re-scatter the per-unique-key flags: the first occurrence of each
    // toggled key in the original batch gets the flag, duplicates stay 0.
    std::vector<std::uint8_t> toggled(unique.size(), 0);
    {
      std::size_t ii = 0, ee = 0;
      for (std::size_t i = 0; i < unique.size(); ++i) {
        const bool wants_insert = add != (in_base[i] != 0);
        toggled[i] = wants_insert ? chg_ins[ii++] : chg_ers[ee++];
      }
    }
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const Key k = key_of(edges[i].u, edges[i].v);
      const auto it = std::lower_bound(unique.begin(), unique.end(), k);
      const auto idx = static_cast<std::size_t>(it - unique.begin());
      if (toggled[idx] != 0) {
        (*changed)[i] = 1;
        toggled[idx] = 0;  // duplicates in the batch stay unchanged
      }
    }
  }

  auto next = std::make_shared<State>();
  next->base = old->base;
  next->delta = cpma_.snapshot();
  next->num_edges = add ? old->num_edges + applied : old->num_edges - applied;
  next->version = old->version + 1;
  publish(next);

  ObsHandles& obs = ObsHandles::get();
  (add ? obs.add_batches : obs.remove_batches).add(1);
  obs.delta_keys.set(static_cast<std::int64_t>(next->delta.size()));
  obs.edges.set(static_cast<std::int64_t>(next->num_edges));
  return applied;
}

bool HybridGraph::needs_compaction() const {
  const StatePtr s = load_state();
  const auto threshold = std::max<std::size_t>(
      config_.compact_min_keys,
      static_cast<std::size_t>(
          config_.compact_ratio *
          static_cast<double>(s->base->num_edges())));
  return s->delta.size() >= threshold;
}

bool HybridGraph::compact(int num_threads) {
  util::MutexLock lock(write_mu_);
  const StatePtr old = load_state();
  if (old->delta.empty()) return false;
  PCQ_TRACE_SCOPE("dyn.hybrid.compact", old->delta.size());
  const auto t0 = Clock::now();

  const csr::BitPackedCsr& base = *old->base;
  const auto n = static_cast<std::size_t>(base.num_nodes());
  const std::vector<Key> toggles = old->delta.keys();

  // Per-node toggle ranges: one lower_bound per node boundary.
  std::vector<std::size_t> starts(n + 1);
  starts[n] = toggles.size();
  par::parallel_for(n, num_threads, [&](std::size_t u) {
    starts[u] = static_cast<std::size_t>(
        std::lower_bound(toggles.begin(), toggles.end(),
                         key_of(static_cast<graph::VertexId>(u), 0)) -
        toggles.begin());
  });

  // Pass 1: visible degrees; pass 2 after the layout scan fills rows.
  std::vector<std::uint64_t> offsets(n + 1, 0);
  par::parallel_for(n, num_threads, [&](std::size_t u) {
    const auto vu = static_cast<graph::VertexId>(u);
    std::uint64_t deg = base.degree(vu);
    for (std::size_t t = starts[u]; t < starts[u + 1]; ++t) {
      if (base.has_edge(vu, key_v(toggles[t])))
        --deg;
      else
        ++deg;
    }
    offsets[u + 1] = deg;
  });
  for (std::size_t u = 0; u < n; ++u) offsets[u + 1] += offsets[u];
  const std::size_t total = offsets[n];
  PCQ_DCHECK(total == old->num_edges);

  std::vector<graph::Edge> merged(total);
  par::parallel_for(n, num_threads, [&](std::size_t u) {
    const auto vu = static_cast<graph::VertexId>(u);
    std::vector<graph::VertexId> base_row = base.neighbors(vu);
    std::vector<graph::VertexId> delta_row;
    delta_row.reserve(starts[u + 1] - starts[u]);
    for (std::size_t t = starts[u]; t < starts[u + 1]; ++t)
      delta_row.push_back(key_v(toggles[t]));
    std::vector<graph::VertexId> row;
    xor_rows(base_row, delta_row, row);
    PCQ_DCHECK(row.size() == offsets[u + 1] - offsets[u]);
    std::size_t at = offsets[u];
    for (const graph::VertexId v : row) merged[at++] = {vu, v};
  });

  const graph::EdgeList list(std::move(merged));
  csr::BitPackedCsr fresh = csr::build_bitpacked_csr_from_sorted(
      list, base.num_nodes(), num_threads);

  cpma_.clear();
  auto next = std::make_shared<State>();
  next->base = std::make_shared<const csr::BitPackedCsr>(std::move(fresh));
  next->delta = cpma_.snapshot();
  next->num_edges = total;
  next->version = old->version + 1;
  publish(next);

  ObsHandles& obs = ObsHandles::get();
  obs.compactions.add(1);
  obs.compaction_us.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count()));
  obs.delta_keys.set(0);
  obs.edges.set(static_cast<std::int64_t>(total));
  return true;
}

bool HybridGraph::maybe_compact(int num_threads) {
  if (!needs_compaction()) return false;
  // acq_rel on the winning CAS + release on the store pair up so the next
  // winner observes everything the previous compaction wrote before it
  // released the flag; seq_cst (the former default) was stronger than the
  // flag needs and relaxed would be too weak on the failure path, where the
  // loser may go on to read state the winner published.
  bool expected = false;
  if (!compacting_.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire))
    return false;
  bool did = false;
  try {
    did = compact(num_threads);
  } catch (...) {
    compacting_.store(false, std::memory_order_release);
    throw;
  }
  compacting_.store(false, std::memory_order_release);
  return did;
}

}  // namespace pcq::dyn
