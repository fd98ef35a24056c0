// Fuzzes the differential TCSR loaders: arbitrary bytes are fed through
// BOTH the buffered multi-frame stream parser and the zero-copy mapped-view
// parser (over an 8-byte-aligned copy of the input). Each must either come
// back as a history the full validator accepts — in which case temporal
// queries are exercised — or raise pcq::IoError. The parity round-trip
// cross-check inside validate_tcsr also runs here, so the parallel
// prefix-XOR snapshot path gets fuzz coverage on every loader-accepted
// input. On v3 images the two parsers must agree bit for bit (the
// differential oracle). On validator-accepted histories the point kernels
// (neighbors_at, edge_active) must agree with snapshot_at.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "check/validate.hpp"
#include "fuzz_util.hpp"
#include "tcsr/serialize.hpp"
#include "tcsr/tcsr.hpp"
#include "util/io_error.hpp"

namespace {

bool same_tcsr(const pcq::tcsr::DifferentialTcsr& a,
               const pcq::tcsr::DifferentialTcsr& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_frames() != b.num_frames())
    return false;
  for (pcq::graph::TimeFrame t = 0; t < a.num_frames(); ++t) {
    const auto& da = a.delta(t);
    const auto& db = b.delta(t);
    if (da.num_edges() != db.num_edges() ||
        da.packed_offsets().bits() != db.packed_offsets().bits() ||
        da.packed_columns().bits() != db.packed_columns().bits())
      return false;
  }
  return true;
}

void exercise(const pcq::tcsr::DifferentialTcsr& tcsr) {
  // Per-frame scans may reject what the loader's O(1) checks let through;
  // that is the designed division of labour. The scans and the parity
  // round-trip must not crash on anything loadable, though.
  const pcq::check::ValidationReport report = pcq::check::validate_tcsr(tcsr);
  if (!report.ok()) return;

  // Validator-accepted histories must answer temporal queries cleanly.
  if (tcsr.num_frames() > 0 && tcsr.num_nodes() > 0) {
    const auto t_last = tcsr.num_frames() - 1;
    const auto u_last = tcsr.num_nodes() - 1;
    (void)tcsr.edge_active(0, u_last, t_last);
    (void)tcsr.neighbors_at(u_last, t_last);
    (void)tcsr.activity_intervals(0, u_last);
  }

  // ...and the right ones: for the first nodes at every frame, the point
  // kernels must agree with the rows of the prefix-XOR snapshot, which
  // reaches its answer along a separate path. edge_active is asked about
  // every v that u's rows of frames 0..t hold, active or not.
  using pcq::graph::TimeFrame;
  using pcq::graph::VertexId;
  const VertexId nodes = std::min<VertexId>(tcsr.num_nodes(), 64);
  for (TimeFrame t = 0; t < tcsr.num_frames(); ++t) {
    const pcq::csr::CsrGraph snap = tcsr.snapshot_at(t, 1);
    for (VertexId u = 0; u < nodes; ++u) {
      const auto want = snap.neighbors(u);
      const auto got = tcsr.neighbors_at(u, t);
      PCQ_FUZZ_ASSERT(
          std::equal(got.begin(), got.end(), want.begin(), want.end()),
          "neighbors_at disagrees with the snapshot_at row");
      for (TimeFrame f = 0; f <= t; ++f)
        for (const std::uint64_t v : tcsr.delta(f).row_cursor(u))
          PCQ_FUZZ_ASSERT(
              tcsr.edge_active(u, static_cast<VertexId>(v), t) ==
                  std::binary_search(want.begin(), want.end(),
                                     static_cast<VertexId>(v)),
              "edge_active disagrees with the snapshot_at row");
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;  // fmemopen rejects zero-length buffers

  std::optional<pcq::tcsr::DifferentialTcsr> buffered;
  {
    std::FILE* stream =
        fmemopen(const_cast<std::uint8_t*>(data), size, "rb");
    if (stream == nullptr) return 0;
    const struct Closer {
      std::FILE* f;
      ~Closer() { std::fclose(f); }
    } closer{stream};
    try {
      buffered = pcq::tcsr::load_tcsr_stream(stream, "<fuzz input>");
      exercise(*buffered);
    } catch (const pcq::IoError&) {
      // Typed rejection: the expected outcome for malformed bytes.
    }
  }

  // Mapped-view parse over an aligned copy (mmap hands the real parser a
  // page-aligned base; the word-sized vector reproduces that guarantee).
  std::vector<std::uint64_t> aligned((size + 7) / 8);
  std::memcpy(aligned.data(), data, size);
  const std::span<const std::byte> bytes(
      reinterpret_cast<const std::byte*>(aligned.data()), size);
  std::optional<pcq::tcsr::DifferentialTcsr> mapped;
  try {
    mapped = pcq::tcsr::map_tcsr_bytes(bytes, "<fuzz input>");
    exercise(*mapped);
  } catch (const pcq::IoError&) {
  }

  // Differential oracle: the two parsers implement the same v3 grammar.
  const bool v3 = size >= 8 && std::memcmp(data, "PCQTCSR3", 8) == 0;
  if (v3) {
    PCQ_FUZZ_ASSERT(buffered.has_value() == mapped.has_value(),
                    "buffered and mapped TCSR parsers disagree on a v3 image");
    if (buffered && mapped)
      PCQ_FUZZ_ASSERT(same_tcsr(*buffered, *mapped),
                      "buffered and mapped TCSR parses differ on a v3 image");
  } else {
    // Non-v3 magic is unmappable by contract; only the buffered parser may
    // accept (v2 files).
    PCQ_FUZZ_ASSERT(!mapped.has_value(),
                    "mapped TCSR parser accepted a non-v3 image");
  }
  return 0;
}
