// Supplementary bench **S3**: time-evolving CSR (Section IV) —
// construction scaling over processors, per-phase split, and temporal
// query latency (edge_active and neighbors_at) of the differential TCSR
// vs five baseline structures. All six must return the same
// neighbors_at rows; the run fails otherwise.
//
// Usage: bench_tcsr [--nodes 50000] [--events 500000] [--frames 32]
//                   [--threads 1,4,8,16,64] [--seed 42]
#include <algorithm>
#include <cstdio>

#include "graph/generators.hpp"
#include "tcsr/baselines.hpp"
#include "tcsr/cas_index.hpp"
#include "tcsr/contact_index.hpp"
#include "tcsr/edgelog.hpp"
#include "tcsr/tcsr.hpp"
#include "util/flags.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace pcq;

  util::Flags flags(argc, argv,
                    {{"nodes", "node count (default 50000)"},
                     {"events", "temporal event count (default 500000)"},
                     {"frames", "time-frame count (default 32)"},
                     {"threads", "processor counts (default 1,4,8,16,64)"},
                     {"seed", "generator seed"},
                     {"workload", "uniform|churn (default churn)"},
                     {"queries", "temporal queries per structure (default 2000)"}});
  const auto nodes = static_cast<graph::VertexId>(flags.get_int("nodes", 50'000));
  const auto events_n = static_cast<std::size_t>(flags.get_int("events", 500'000));
  const auto frames = static_cast<graph::TimeFrame>(flags.get_int("frames", 32));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto queries_n = static_cast<std::size_t>(flags.get_int("queries", 2000));
  const std::vector<int> threads = flags.get_int_list("threads", {1, 4, 8, 16, 64});
  const std::string workload = flags.get("workload", "churn");

  std::printf("S3: differential TCSR (Section IV) — %s nodes, %s events, "
              "%u frames, %s workload\n\n",
              util::with_commas(nodes).c_str(),
              util::with_commas(events_n).c_str(), frames, workload.c_str());

  // Churn (default): one initial burst then small per-frame deltas — the
  // persistent-edge shape §IV motivates the differential form with.
  // Uniform: events spread evenly over frames (heavier deltas).
  const graph::TemporalEdgeList events =
      workload == "uniform"
          ? graph::evolving_graph(nodes, events_n, frames, seed, 0)
          : graph::evolving_graph_churn(
                nodes, events_n / 2, frames,
                frames > 1 ? events_n / 2 / (frames - 1) : 0, 0.4, seed);

  // Construction scaling (Algorithm 5) across processor counts.
  util::Table build_table({"# of Processors", "Total (ms)", "frame-split (ms)",
                           "frame-build (ms)", "pack (ms)"});
  for (int p : threads) {
    tcsr::TcsrBuildTimings best{};
    double best_total = -1;
    for (int rep = 0; rep < 3; ++rep) {
      tcsr::TcsrBuildTimings t;
      util::Timer timer;
      const auto built = tcsr::DifferentialTcsr::build(events, nodes, frames, p, &t);
      const double total = timer.seconds();
      if (best_total < 0 || total < best_total) {
        best_total = total;
        best = t;
      }
    }
    build_table.add_row({std::to_string(p), util::fixed(best_total * 1e3, 2),
                         util::fixed(best.frame_split * 1e3, 2),
                         util::fixed(best.frame_build * 1e3, 2),
                         util::fixed(best.pack * 1e3, 2)});
  }
  build_table.print();

  // Temporal query latency: same random battery on all three structures.
  const auto tcsr_s = tcsr::DifferentialTcsr::build(events, nodes, frames, 0);
  const auto snaps = tcsr::SnapshotSequence::build(events, nodes, frames, 0);
  const auto evelog = tcsr::EveLog::build(events, nodes, 0);
  const auto cas = tcsr::CasIndex::build(events, nodes, 0);
  const auto contacts = tcsr::ContactIndex::build(events, nodes, frames, 0);
  const auto edgelog = tcsr::EdgeLog::build(events, nodes, frames, 0);

  // Half the battery targets pairs that actually occur in the history
  // (so positive and negative paths are both exercised), half is random.
  std::vector<tcsr::TemporalEdgeQuery> queries(queries_n);
  util::SplitMix64 rng(seed + 1);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (i % 2 == 0 && !events.empty()) {
      const auto& e = events.edges()[rng.next_below(events.size())];
      queries[i] = {e.u, e.v,
                    static_cast<graph::TimeFrame>(rng.next_below(frames))};
    } else {
      queries[i] = {static_cast<graph::VertexId>(rng.next_below(nodes)),
                    static_cast<graph::VertexId>(rng.next_below(nodes)),
                    static_cast<graph::TimeFrame>(rng.next_below(frames))};
    }
  }

  auto time_queries = [&](auto&& fn) {
    util::Timer timer;
    std::size_t hits = 0;
    for (const auto& q : queries) hits += fn(q) ? 1 : 0;
    const double us_per_query = timer.micros() / static_cast<double>(queries.size());
    return std::pair<double, std::size_t>(us_per_query, hits);
  };

  const auto [t_diff, h_diff] = time_queries(
      [&](const auto& q) { return tcsr_s.edge_active(q.u, q.v, q.t); });
  const auto [t_snap, h_snap] = time_queries(
      [&](const auto& q) { return snaps.edge_active(q.u, q.v, q.t); });
  const auto [t_log, h_log] = time_queries(
      [&](const auto& q) { return evelog.edge_active(q.u, q.v, q.t); });
  const auto [t_cas, h_cas] = time_queries(
      [&](const auto& q) { return cas.edge_active(q.u, q.v, q.t); });

  std::printf("\nedge_active latency over %s random queries:\n",
              util::with_commas(queries.size()).c_str());
  std::printf("  differential TCSR : %8.2f us/query (%zu active)\n", t_diff, h_diff);
  std::printf("  snapshot sequence : %8.2f us/query (%zu active)\n", t_snap, h_snap);
  std::printf("  EveLog replay     : %8.2f us/query (%zu active)\n", t_log, h_log);
  std::printf("  CAS wavelet index : %8.2f us/query (%zu active)\n", t_cas, h_cas);
  const auto [t_ct, h_ct] = time_queries(
      [&](const auto& q) { return contacts.edge_active(q.u, q.v, q.t); });
  const auto [t_el, h_el] = time_queries(
      [&](const auto& q) { return edgelog.edge_active(q.u, q.v, q.t); });
  std::printf("  contact index     : %8.2f us/query (%zu active)\n", t_ct, h_ct);
  std::printf("  EdgeLog intervals : %8.2f us/query (%zu active)\n", t_el, h_el);

  // neighbors_at latency on two source draws: the source of a random
  // event (event-biased, as pcqbench draws them, so hub rows show) and a
  // uniform node. Every structure must return the differential TCSR's
  // rows; they are sorted and compared after the timed loop.
  std::vector<tcsr::TemporalNodeQuery> biased(queries_n);
  std::vector<tcsr::TemporalNodeQuery> uniform(queries_n);
  for (std::size_t i = 0; i < queries_n; ++i) {
    const auto t = static_cast<graph::TimeFrame>(rng.next_below(frames));
    biased[i] = {events.empty()
                     ? static_cast<graph::VertexId>(rng.next_below(nodes))
                     : events.edges()[rng.next_below(events.size())].u,
                 t};
    uniform[i] = {static_cast<graph::VertexId>(rng.next_below(nodes)), t};
  }
  std::vector<std::vector<graph::VertexId>> reference;
  std::size_t rows_differing = 0;
  util::Table rows_table({"structure", "event-biased (us/query)",
                          "uniform (us/query)", "neighbours",
                          "rows differing"});
  auto time_rows = [&](const char* name, auto&& fn) {
    std::vector<std::vector<graph::VertexId>> rows;
    rows.reserve(2 * queries_n);
    double us[2] = {0, 0};
    for (int draw = 0; draw < 2; ++draw) {
      const auto& qs = draw == 0 ? biased : uniform;
      util::Timer timer;
      for (const auto& q : qs) rows.push_back(fn(q.u, q.t));
      us[draw] = timer.micros() / static_cast<double>(qs.size());
    }
    for (auto& row : rows) std::sort(row.begin(), row.end());
    if (reference.empty()) reference = rows;
    std::size_t neighbours = 0, differing = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      neighbours += rows[i].size();
      differing += rows[i] != reference[i] ? 1 : 0;
    }
    rows_differing += differing;
    rows_table.add_row({name, util::fixed(us[0], 2), util::fixed(us[1], 2),
                        util::with_commas(neighbours),
                        std::to_string(differing)});
  };
  time_rows("differential TCSR",
            [&](auto u, auto t) { return tcsr_s.neighbors_at(u, t); });
  time_rows("snapshot sequence",
            [&](auto u, auto t) { return snaps.neighbors_at(u, t); });
  time_rows("EveLog replay",
            [&](auto u, auto t) { return evelog.neighbors_at(u, t); });
  time_rows("CAS wavelet index",
            [&](auto u, auto t) { return cas.neighbors_at(u, t); });
  time_rows("contact index",
            [&](auto u, auto t) { return contacts.neighbors_at(u, t); });
  time_rows("EdgeLog intervals",
            [&](auto u, auto t) { return edgelog.neighbors_at(u, t); });
  std::printf("\nneighbors_at latency over %s queries per source draw:\n",
              util::with_commas(queries_n).c_str());
  rows_table.print();

  // Batch (Algorithm 7/9 analogue) across thread counts.
  std::printf("\nbatch_edge_active (differential TCSR):\n");
  for (int p : threads) {
    util::Timer timer;
    const auto result = tcsr_s.batch_edge_active(queries, p);
    std::printf("  p=%-3d %8.2f us/query\n", p,
                timer.micros() / static_cast<double>(result.size()));
  }

  std::printf("\nstorage:\n");
  std::printf("  raw event list    : %10s\n",
              util::human_bytes(events.size_bytes()).c_str());
  std::printf("  differential TCSR : %10s\n",
              util::human_bytes(tcsr_s.size_bytes()).c_str());
  std::printf("  snapshot sequence : %10s\n",
              util::human_bytes(snaps.size_bytes()).c_str());
  std::printf("  EveLog events     : %10s\n",
              util::human_bytes(evelog.size_bytes()).c_str());
  std::printf("  CAS wavelet index : %10s\n",
              util::human_bytes(cas.size_bytes()).c_str());
  std::printf("  contact index     : %10s\n",
              util::human_bytes(contacts.size_bytes()).c_str());
  std::printf("  EdgeLog intervals : %10s\n",
              util::human_bytes(edgelog.size_bytes()).c_str());
  if (rows_differing != 0) {
    std::fprintf(stderr, "bench_tcsr: %zu neighbors_at rows differ between "
                         "structures\n", rows_differing);
    return 1;
  }
  return 0;
}
