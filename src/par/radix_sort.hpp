// LSD radix sorts: a parallel one for unsigned 64-bit keys, and a
// sequential one for 32-bit keys (radix_sort_u32, below).
//
// The CSR pipeline's unsorted path is dominated by sorting the edge list;
// comparison sorting costs O(n log n) while an 8-bit-digit radix sort does
// a fixed 8 passes of counting + scatter, each parallelised with the same
// chunk/prefix-sum machinery as the rest of the library (per-chunk
// histograms, exclusive offsets via scan, chunk-private scatter windows).
// Keys are extracted by a caller-provided projection so graph::Edge sorts
// by the packed (u, v) pair without materialising keys twice.
//
// Stability: each pass is stable (chunk-ordered scatter), so the full sort
// is stable — required for sorting edges by source while preserving a
// previous by-destination pass if callers compose passes manually.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "par/chunking.hpp"
#include "par/parallel_for.hpp"
#include "par/threads.hpp"
#include "util/check.hpp"

namespace pcq::par {

/// Sorts `v` by `key(v[i])` ascending, where Key returns std::uint64_t.
/// Uses 8-bit digits; passes over digits above the maximum key are
/// skipped, so 32-bit keys cost 4 passes, not 8.
template <typename T, typename KeyFn>
void parallel_radix_sort(std::span<T> v, int num_threads, KeyFn&& key) {
  const std::size_t n = v.size();
  if (n < 2) return;
  const auto p = static_cast<std::size_t>(clamp_threads(num_threads));
  const std::size_t chunks = num_nonempty_chunks(n, p);
  constexpr unsigned kDigitBits = 8;
  constexpr std::size_t kBuckets = 1u << kDigitBits;

  // Find the highest non-zero digit position to skip dead passes.
  std::uint64_t max_key = 0;
  {
    std::vector<std::uint64_t> partial(chunks, 0);
    parallel_for_chunks(n, static_cast<int>(chunks),
                        [&](std::size_t c, ChunkRange r) {
                          std::uint64_t m = 0;
                          for (std::size_t i = r.begin; i < r.end; ++i) {
                            const std::uint64_t k = key(v[i]);
                            if (k > m) m = k;
                          }
                          partial[c] = m;
                        });
    for (std::uint64_t m : partial)
      if (m > max_key) max_key = m;
  }

  std::vector<T> buffer(n);
  std::span<T> src = v;
  std::span<T> dst = buffer;

  // counts[c][b]: occurrences of digit b in chunk c.
  std::vector<std::vector<std::uint64_t>> counts(
      chunks, std::vector<std::uint64_t>(kBuckets));

  for (unsigned shift = 0; shift < 64; shift += kDigitBits) {
    if (shift > 0 && (max_key >> shift) == 0) break;

    // Pass 1: per-chunk digit histograms (no sharing, no atomics).
    parallel_for_chunks(n, static_cast<int>(chunks),
                        [&](std::size_t c, ChunkRange r) {
                          auto& h = counts[c];
                          std::fill(h.begin(), h.end(), 0);
                          for (std::size_t i = r.begin; i < r.end; ++i)
                            ++h[(key(src[i]) >> shift) & (kBuckets - 1)];
                        });

    // Pass 2: exclusive offsets in (bucket-major, chunk-minor) order — the
    // scatter window of chunk c for digit b. Sequential O(chunks * 256),
    // negligible next to the O(n) passes.
    std::uint64_t running = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::uint64_t count = counts[c][b];
        counts[c][b] = running;
        running += count;
      }
    }

    // Pass 3: stable scatter; each chunk owns disjoint windows.
    parallel_for_chunks(n, static_cast<int>(chunks),
                        [&](std::size_t c, ChunkRange r) {
                          auto& offsets = counts[c];
                          for (std::size_t i = r.begin; i < r.end; ++i) {
                            const std::size_t b =
                                (key(src[i]) >> shift) & (kBuckets - 1);
                            dst[offsets[b]++] = src[i];
                          }
                        });

    std::swap(src, dst);
  }

  // An odd number of passes leaves the result in the buffer.
  if (src.data() != v.data()) {
    parallel_for(n, static_cast<int>(p),
                 [&](std::size_t i) { v[i] = src[i]; });
  }
}

/// Convenience overload for plain integer arrays.
inline void parallel_radix_sort_u64(std::span<std::uint64_t> v,
                                    int num_threads) {
  parallel_radix_sort(v, num_threads,
                      [](std::uint64_t x) { return x; });
}

/// Sequential LSD radix sort of `keys`, each below 2^key_bits (key_bits is
/// clamped to [1, 32]). For the many short arrays one thread sorts in a
/// row, e.g. one per query: the pass count is ceil(key_bits / 11) and the
/// digits split key_bits evenly, so 18-bit keys take two 9-bit passes.
/// Digits are masked, so a key wider than key_bits cannot move a count
/// index out of its array (it only sorts by its low bits). `scratch` grows
/// to keys.size() and is reused by later calls.
inline void radix_sort_u32(std::span<std::uint32_t> keys, unsigned key_bits,
                           std::vector<std::uint32_t>& scratch) {
  // Widest digit: two passes cover 22-bit keys, three any 32-bit key, and
  // a pass's counts (2^11 of them) stay on the stack.
  constexpr unsigned kMaxDigitBits = 11;
  const std::size_t n = keys.size();
  if (n < 2) return;
  PCQ_CHECK_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
                "radix_sort_u32 counts overflow");
  key_bits = std::clamp(key_bits, 1u, 32u);
  const unsigned passes = (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const unsigned digit_bits = (key_bits + passes - 1) / passes;
  const std::size_t buckets = std::size_t{1} << digit_bits;
  const std::uint32_t mask = static_cast<std::uint32_t>(buckets - 1);
  if (scratch.size() < n) scratch.resize(n);

  // Each pass zeroes the `buckets` counts it reads; the rest stay unused.
  std::array<std::uint32_t, std::size_t{1} << kMaxDigitBits> counts;
  std::uint32_t* src = keys.data();
  std::uint32_t* dst = scratch.data();
  for (unsigned pass = 0; pass < passes; ++pass) {
    const unsigned shift = pass * digit_bits;
    std::fill_n(counts.begin(), buckets, 0u);
    for (std::size_t i = 0; i < n; ++i) ++counts[(src[i] >> shift) & mask];
    std::uint32_t running = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::uint32_t count = counts[b];
      counts[b] = running;
      running += count;
    }
    for (std::size_t i = 0; i < n; ++i)
      dst[counts[(src[i] >> shift) & mask]++] = src[i];
    std::swap(src, dst);
  }
  // An odd number of passes leaves the result in the scratch buffer.
  if (src != keys.data()) std::copy_n(src, n, keys.data());
}

}  // namespace pcq::par
