// pcq — command-line driver for the compression/query pipeline.
//
// Subcommands (first positional argument):
//   compress  <in.txt|in.bin> --out g.csr [--threads N] [--relabel]
//             parallel-sorts the edge list, builds the bit-packed CSR and
//             writes it to disk (optionally degree-relabeled first).
//   stats     <in.txt|in.bin|g.csr> [--threads N]
//             prints node/edge counts, sizes and the degree profile.
//   query     <g.csr> --node U | --edge U,V [--threads N] [--mmap]
//             answers a neighbourhood or edge-existence query; --mmap
//             answers it from a zero-copy mapped view of the file.
//   convert   <in.txt> --out out.bin   (text <-> binary edge lists)
//   tcompress <events.txt> --out h.tcsr [--threads N]
//             builds and saves the differential TCSR of a temporal list.
//   tquery    <h.tcsr> --edge U,V --frame T | --node U --frame T [--mmap]
//   check     <g.csr|h.tcsr> [--threads N] [--mmap]
//             runs the pcq::check structural validators over a compressed
//             artifact; exit 0 = valid, 4 = invariant violations (printed).
//
// Input format is inferred from the extension: .txt (SNAP text), .bin
// (pcq binary edge list), .csr / .tcsr (compressed artifacts).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "algos/stats.hpp"
#include "check/validate.hpp"
#include "csr/builder.hpp"
#include "csr/query.hpp"
#include "csr/serialize.hpp"
#include "graph/baselines.hpp"
#include "graph/io.hpp"
#include "graph/k2tree.hpp"
#include "graph/transforms.hpp"
#include "graph/webgraph.hpp"
#include "obs/trace.hpp"
#include "tcsr/baselines.hpp"
#include "tcsr/cas_index.hpp"
#include "tcsr/contact_index.hpp"
#include "tcsr/edgelog.hpp"
#include "tcsr/serialize.hpp"
#include "tcsr/tcsr.hpp"
#include "util/flags.hpp"
#include "util/format.hpp"
#include "util/io_error.hpp"
#include "util/timer.hpp"

namespace {

using namespace pcq;
using graph::VertexId;

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t len = std::strlen(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

graph::EdgeList load_edges(const std::string& path) {
  if (ends_with(path, ".bin")) return graph::load_binary(path);
  return graph::load_snap_text(path);
}

/// Parses "U,V" into an edge.
bool parse_edge(const std::string& s, VertexId* u, VertexId* v) {
  const auto comma = s.find(',');
  if (comma == std::string::npos) return false;
  *u = static_cast<VertexId>(std::strtoul(s.c_str(), nullptr, 10));
  *v = static_cast<VertexId>(std::strtoul(s.c_str() + comma + 1, nullptr, 10));
  return true;
}

/// Turns span recording on when the build commands were asked to report
/// phases (--trace and/or --stats).
void maybe_enable_tracing(const util::Flags& flags) {
  if (flags.has("trace") || flags.get_bool("stats", false))
    obs::set_trace_enabled(true);
}

/// Build-command epilogue: per-phase table to stdout (--stats) and Chrome
/// trace JSON to disk (--trace PATH). Returns the command's exit code.
int finish_tracing(const util::Flags& flags) {
  if (flags.get_bool("stats", false)) obs::write_phase_table(std::cout);
  const std::string path = flags.get("trace", "");
  if (!path.empty()) {
    if (!obs::write_chrome_trace_file(path)) {
      std::fprintf(stderr, "error: cannot write trace to %s\n", path.c_str());
      return 3;
    }
    std::printf("wrote trace %s (load in Perfetto / chrome://tracing)\n",
                path.c_str());
  }
  return 0;
}

int cmd_compress(const util::Flags& flags, const std::string& input) {
  maybe_enable_tracing(flags);
  const int threads = static_cast<int>(flags.get_int("threads", 0));
  const std::string out = flags.get("out", input + ".csr");

  util::Timer timer;
  graph::EdgeList list = load_edges(input);
  std::printf("loaded %s edges (%s) in %s\n",
              util::with_commas(list.size()).c_str(),
              util::human_bytes(list.size_bytes()).c_str(),
              util::human_seconds(timer.seconds()).c_str());

  if (flags.get_bool("relabel", false)) {
    timer.restart();
    graph::RelabelResult r = graph::relabel_by_degree(list, 0, threads);
    list = std::move(r.list);
    std::printf("degree-relabeled in %s\n",
                util::human_seconds(timer.seconds()).c_str());
  }

  timer.restart();
  list.sort(threads);
  const double sort_s = timer.seconds();
  timer.restart();
  csr::CsrBuildTimings phases;
  const csr::BitPackedCsr packed =
      csr::build_bitpacked_csr_from_sorted(list, 0, threads, &phases);
  const double build_s = timer.seconds();
  csr::save_bitpacked_csr(packed, out);

  std::printf("compressed %s nodes / %s edges -> %s (%.2f bits/edge)\n",
              util::with_commas(packed.num_nodes()).c_str(),
              util::with_commas(packed.num_edges()).c_str(),
              util::human_bytes(packed.size_bytes()).c_str(),
              packed.num_edges() == 0
                  ? 0.0
                  : 8.0 * static_cast<double>(packed.size_bytes()) /
                        static_cast<double>(packed.num_edges()));
  std::printf("sort %s | degree %s | scan %s | fill %s | pack %s "
              "(build total %s)\n",
              util::human_seconds(sort_s).c_str(),
              util::human_seconds(phases.degree).c_str(),
              util::human_seconds(phases.scan).c_str(),
              util::human_seconds(phases.fill).c_str(),
              util::human_seconds(phases.pack).c_str(),
              util::human_seconds(build_s).c_str());
  std::printf("wrote %s\n", out.c_str());
  return finish_tracing(flags);
}

int cmd_stats(const util::Flags& flags, const std::string& input) {
  const int threads = static_cast<int>(flags.get_int("threads", 0));
  csr::CsrGraph csr;
  std::size_t compressed_bytes = 0;
  if (ends_with(input, ".csr")) {
    const csr::BitPackedCsr packed = csr::load_bitpacked_csr(input);
    compressed_bytes = packed.size_bytes();
    csr = packed.to_csr();
  } else {
    graph::EdgeList list = load_edges(input);
    list.sort(threads);
    csr = csr::build_csr_from_sorted(list, 0, threads);
    compressed_bytes =
        csr::BitPackedCsr::from_csr(csr, threads).size_bytes();
  }
  const auto stats = algos::degree_stats(csr, threads);
  std::printf("nodes        %s\n", util::with_commas(csr.num_nodes()).c_str());
  std::printf("edges        %s\n", util::with_commas(csr.num_edges()).c_str());
  std::printf("packed size  %s\n", util::human_bytes(compressed_bytes).c_str());
  std::printf("degree       mean %.2f | median %.0f | p99 %.0f | max %u | "
              "gini %.3f\n",
              stats.mean, stats.p50, stats.p99, stats.max, stats.gini);
  const auto hist = algos::degree_histogram_log2(csr);
  std::printf("degree histogram (log2 buckets):\n");
  for (std::size_t k = 0; k < hist.size(); ++k)
    std::printf("  [%7u, %7u): %s\n", 1u << k, 2u << k,
                util::with_commas(hist[k]).c_str());
  return 0;
}

/// Loads a .csr either buffered or zero-copy mapped (--mmap). The returned
/// struct keeps the mapping alive for as long as the CSR is queried.
csr::MappedCsr load_csr_arg(const util::Flags& flags,
                            const std::string& input) {
  if (flags.has("mmap")) return csr::map_bitpacked_csr(input);
  csr::MappedCsr out;
  out.csr = csr::load_bitpacked_csr(input);
  return out;
}

tcsr::MappedTcsr load_tcsr_arg(const util::Flags& flags,
                               const std::string& input) {
  if (flags.has("mmap")) return tcsr::map_tcsr(input);
  tcsr::MappedTcsr out;
  out.tcsr = tcsr::load_tcsr(input);
  return out;
}

int cmd_query(const util::Flags& flags, const std::string& input) {
  const int threads = static_cast<int>(flags.get_int("threads", 0));
  const csr::MappedCsr loaded = load_csr_arg(flags, input);
  const csr::BitPackedCsr& packed = loaded.csr;

  if (flags.has("edge")) {
    VertexId u = 0, v = 0;
    if (!parse_edge(flags.get("edge", ""), &u, &v)) {
      std::fprintf(stderr, "error: --edge expects U,V\n");
      return 2;
    }
    if (u >= packed.num_nodes()) {
      std::fprintf(stderr, "error: node %u out of range (graph has %u)\n", u,
                   packed.num_nodes());
      return 2;
    }
    const bool present = csr::edge_exists_intra_row(packed, u, v, threads,
                                                    csr::RowSearch::kBinary);
    std::printf("edge (%u, %u): %s\n", u, v, present ? "present" : "absent");
    return 0;
  }
  if (flags.has("node")) {
    const auto u = static_cast<VertexId>(flags.get_int("node", 0));
    if (u >= packed.num_nodes()) {
      std::fprintf(stderr, "error: node %u out of range (graph has %u)\n", u,
                   packed.num_nodes());
      return 2;
    }
    const auto row = packed.neighbors(u);
    std::printf("neighbors(%u) [%zu]:", u, row.size());
    for (std::size_t i = 0; i < row.size() && i < 64; ++i)
      std::printf(" %u", row[i]);
    if (row.size() > 64) std::printf(" ...");
    std::printf("\n");
    return 0;
  }
  std::fprintf(stderr, "error: query needs --node or --edge\n");
  return 2;
}

int cmd_compare(const util::Flags& flags, const std::string& input) {
  // One-graph storage comparison across every structure the library
  // implements (the S2 bench for the user's own data).
  const int threads = static_cast<int>(flags.get_int("threads", 0));
  graph::EdgeList list = load_edges(input);
  list.sort(threads);
  list.dedupe();
  const VertexId n = list.num_nodes();
  const csr::CsrGraph plain = csr::build_csr_from_sorted(list, n, threads);
  const csr::BitPackedCsr packed = csr::BitPackedCsr::from_csr(plain, threads);
  const graph::AdjacencyListGraph adj(list, n);
  const graph::GapZetaGraph zeta =
      graph::GapZetaGraph::build_from_sorted(list, n, 3, threads);
  const graph::K2Tree k2 = graph::K2Tree::build(list, n, 4, threads);

  std::printf("%s: %s nodes, %s distinct edges\n", input.c_str(),
              util::with_commas(n).c_str(),
              util::with_commas(list.size()).c_str());
  auto row = [&](const char* name, std::size_t bytes) {
    std::printf("  %-22s %12s  %6.2f bits/edge\n", name,
                util::human_bytes(bytes).c_str(),
                list.empty() ? 0.0
                             : 8.0 * static_cast<double>(bytes) /
                                   static_cast<double>(list.size()));
  };
  row("edge list (binary)", list.size_bytes());
  row("edge list (SNAP text)", list.text_size_bytes());
  row("adjacency list", adj.size_bytes());
  row("plain CSR", plain.size_bytes());
  row("bit-packed CSR", packed.size_bytes());
  row("gap+zeta (WebGraph)", zeta.size_bytes());
  row("k2-tree", k2.size_bytes());
  return 0;
}

int cmd_convert(const util::Flags& flags, const std::string& input) {
  const std::string out = flags.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "error: convert needs --out\n");
    return 2;
  }
  const graph::EdgeList list = load_edges(input);
  if (ends_with(out, ".bin"))
    graph::save_binary(list, out);
  else
    graph::save_snap_text(list, out);
  std::printf("wrote %s (%s edges)\n", out.c_str(),
              util::with_commas(list.size()).c_str());
  return 0;
}

int cmd_tcompress(const util::Flags& flags, const std::string& input) {
  maybe_enable_tracing(flags);
  const int threads = static_cast<int>(flags.get_int("threads", 0));
  const std::string out = flags.get("out", input + ".tcsr");
  graph::TemporalEdgeList events = graph::load_temporal_text(input);
  events.sort(threads);
  util::Timer timer;
  const auto tcsr = tcsr::DifferentialTcsr::build(events, 0, 0, threads);
  tcsr::save_tcsr(tcsr, out);
  std::printf("compressed %s events over %u frames -> %s in %s; wrote %s\n",
              util::with_commas(events.size()).c_str(), tcsr.num_frames(),
              util::human_bytes(tcsr.size_bytes()).c_str(),
              util::human_seconds(timer.seconds()).c_str(), out.c_str());
  return finish_tracing(flags);
}

int cmd_tcompare(const util::Flags& flags, const std::string& input) {
  // Storage comparison across the temporal structures for the user's own
  // event history.
  const int threads = static_cast<int>(flags.get_int("threads", 0));
  graph::TemporalEdgeList events = graph::load_temporal_text(input);
  events.sort(threads);
  const auto nodes = events.num_nodes();
  const auto frames = events.num_frames();
  std::printf("%s: %s events, %u nodes, %u frames (%s raw)\n", input.c_str(),
              util::with_commas(events.size()).c_str(), nodes, frames,
              util::human_bytes(events.size_bytes()).c_str());
  auto row = [&](const char* name, std::size_t bytes) {
    std::printf("  %-24s %12s\n", name, util::human_bytes(bytes).c_str());
  };
  row("differential TCSR",
      tcsr::DifferentialTcsr::build(events, nodes, frames, threads).size_bytes());
  row("snapshot sequence",
      tcsr::SnapshotSequence::build(events, nodes, frames, threads).size_bytes());
  row("EveLog events", tcsr::EveLog::build(events, nodes, threads).size_bytes());
  row("CAS wavelet index",
      tcsr::CasIndex::build(events, nodes, threads).size_bytes());
  row("contact index",
      tcsr::ContactIndex::build(events, nodes, frames, threads).size_bytes());
  row("EdgeLog intervals",
      tcsr::EdgeLog::build(events, nodes, frames, threads).size_bytes());
  return 0;
}

int cmd_check(const util::Flags& flags, const std::string& input) {
  // Deep structural validation of a compressed artifact: the loader already
  // rejects inconsistent headers/truncation (IoError), this adds the full
  // O(n + m) invariant scan — the pipeline's answer to "did this file
  // survive the disk/transfer it came from?".
  const int threads = static_cast<int>(flags.get_int("threads", 0));
  check::ValidateOptions opts;
  opts.num_threads = threads;
  check::ValidationReport report;
  if (ends_with(input, ".tcsr")) {
    const auto loaded = load_tcsr_arg(flags, input);
    const auto& tcsr = loaded.tcsr;
    report = check::validate_tcsr(tcsr, opts);
    std::printf("%s: %u nodes, %u frames%s\n", input.c_str(), tcsr.num_nodes(),
                tcsr.num_frames(), loaded.mapped ? " (mapped)" : "");
  } else {
    const auto loaded = load_csr_arg(flags, input);
    const auto& packed = loaded.csr;
    report = check::validate_csr(packed, opts);
    std::printf("%s: %u nodes, %zu edges%s\n", input.c_str(),
                packed.num_nodes(), packed.num_edges(),
                loaded.mapped ? " (mapped)" : "");
  }
  if (report.ok()) {
    std::printf("check OK: all format invariants hold\n");
    return 0;
  }
  std::fprintf(stderr, "check FAILED:\n%s", report.to_string().c_str());
  return 4;
}

int cmd_tquery(const util::Flags& flags, const std::string& input) {
  maybe_enable_tracing(flags);
  const auto loaded = load_tcsr_arg(flags, input);
  const auto& tcsr = loaded.tcsr;
  const auto frame =
      static_cast<graph::TimeFrame>(flags.get_int("frame", 0));
  if (frame >= tcsr.num_frames()) {
    std::fprintf(stderr, "error: frame %u out of range (history has %u)\n",
                 frame, tcsr.num_frames());
    return 2;
  }
  if (flags.has("snapshot")) {
    // Materialize the frame's full adjacency via the paper's differential
    // scan (chunked prefix sum under the symmetric-difference monoid).
    const int threads = static_cast<int>(flags.get_int("threads", 0));
    util::Timer timer;
    const auto snap = tcsr.snapshot_at(frame, threads);
    std::printf("snapshot at frame %u: %s nodes / %s edges in %s\n", frame,
                util::with_commas(snap.num_nodes()).c_str(),
                util::with_commas(snap.num_edges()).c_str(),
                util::human_seconds(timer.seconds()).c_str());
    return finish_tracing(flags);
  }
  if (flags.has("edge")) {
    VertexId u = 0, v = 0;
    if (!parse_edge(flags.get("edge", ""), &u, &v)) {
      std::fprintf(stderr, "error: --edge expects U,V\n");
      return 2;
    }
    std::printf("edge (%u, %u) at frame %u: %s\n", u, v, frame,
                tcsr.edge_active(u, v, frame) ? "active" : "inactive");
    const auto intervals = tcsr.activity_intervals(u, v);
    std::printf("activity intervals:");
    for (const auto& iv : intervals)
      std::printf(" [%u, %u]", iv.begin, iv.end);
    std::printf("\n");
    return finish_tracing(flags);
  }
  if (flags.has("node")) {
    const auto u = static_cast<VertexId>(flags.get_int("node", 0));
    const auto row = tcsr.neighbors_at(u, frame);
    std::printf("neighbors(%u) at frame %u [%zu]:", u, frame, row.size());
    for (std::size_t i = 0; i < row.size() && i < 64; ++i)
      std::printf(" %u", row[i]);
    std::printf("\n");
    return finish_tracing(flags);
  }
  std::fprintf(stderr, "error: tquery needs --node, --edge or --snapshot\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv,
                    {{"out", "output path"},
                     {"threads", "processors (0 = all)"},
                     {"relabel", "degree-relabel before compressing"},
                     {"node", "node id to query"},
                     {"edge", "edge query as U,V"},
                     {"frame", "time-frame for temporal queries"},
                     {"snapshot", "materialize the frame's full snapshot"},
                     {"trace", "write Chrome trace JSON of the build here"},
                     {"stats", "print the per-phase span table"},
                     {"mmap", "query/check straight from a mapped file"}});
  const auto& pos = flags.positional();
  if (pos.size() < 2) {
    std::fprintf(stderr,
                 "usage: pcq <compress|stats|compare|query|convert|tcompress|"
                 "tquery|check> <input> [flags]\n");
    return 2;
  }
  const std::string& cmd = pos[0];
  const std::string& input = pos[1];
  // The (de)serializers throw pcq::IoError on missing, truncated or
  // corrupted files; report and exit instead of aborting, so scripted
  // pipelines see a clean diagnostic and a distinct exit code.
  try {
    if (cmd == "compress") return cmd_compress(flags, input);
    if (cmd == "stats") return cmd_stats(flags, input);
    if (cmd == "compare") return cmd_compare(flags, input);
    if (cmd == "query") return cmd_query(flags, input);
    if (cmd == "convert") return cmd_convert(flags, input);
    if (cmd == "tcompress") return cmd_tcompress(flags, input);
    if (cmd == "tquery") return cmd_tquery(flags, input);
    if (cmd == "tcompare") return cmd_tcompare(flags, input);
    if (cmd == "check") return cmd_check(flags, input);
  } catch (const pcq::IoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
  std::fprintf(stderr, "error: unknown command '%s'\n", cmd.c_str());
  return 2;
}
