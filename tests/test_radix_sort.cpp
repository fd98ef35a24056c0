#include "par/radix_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "graph/types.hpp"
#include "util/rng.hpp"

namespace pcq::par {
namespace {

std::vector<std::uint64_t> random_values(std::size_t n, std::uint64_t seed,
                                         std::uint64_t bound) {
  pcq::util::SplitMix64 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = bound == 0 ? rng.next() : rng.next_below(bound);
  return v;
}

TEST(RadixSort, EmptyAndSingle) {
  std::vector<std::uint64_t> empty;
  parallel_radix_sort_u64(empty, 4);
  EXPECT_TRUE(empty.empty());

  std::vector<std::uint64_t> one{7};
  parallel_radix_sort_u64(one, 4);
  EXPECT_EQ(one, (std::vector<std::uint64_t>{7}));
}

TEST(RadixSort, Full64BitKeys) {
  auto v = random_values(50'000, 1, 0);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parallel_radix_sort_u64(v, 4);
  EXPECT_EQ(v, expected);
}

TEST(RadixSort, SmallKeysSkipDeadPasses) {
  // 8-bit keys: only one digit pass should be needed; correctness is what
  // we assert, the skip is a perf property exercised implicitly.
  auto v = random_values(10'000, 2, 256);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parallel_radix_sort_u64(v, 8);
  EXPECT_EQ(v, expected);
}

TEST(RadixSort, AllEqualKeys) {
  std::vector<std::uint64_t> v(5000, 42);
  parallel_radix_sort_u64(v, 4);
  EXPECT_TRUE(std::all_of(v.begin(), v.end(),
                          [](std::uint64_t x) { return x == 42; }));
}

TEST(RadixSort, AlreadySortedAndReverse) {
  std::vector<std::uint64_t> v(10'000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
  auto expected = v;
  parallel_radix_sort_u64(v, 4);
  EXPECT_EQ(v, expected);
  std::reverse(v.begin(), v.end());
  parallel_radix_sort_u64(v, 4);
  EXPECT_EQ(v, expected);
}

TEST(RadixSort, StableForEqualKeys) {
  // Sort pairs by .first only; equal keys must keep insertion order.
  struct Item {
    std::uint32_t key;
    std::uint32_t seq;
  };
  pcq::util::SplitMix64 rng(5);
  std::vector<Item> items(20'000);
  for (std::uint32_t i = 0; i < items.size(); ++i)
    items[i] = {static_cast<std::uint32_t>(rng.next_below(16)), i};
  parallel_radix_sort(std::span<Item>(items), 4,
                      [](const Item& it) { return std::uint64_t{it.key}; });
  for (std::size_t i = 1; i < items.size(); ++i) {
    ASSERT_LE(items[i - 1].key, items[i].key);
    if (items[i - 1].key == items[i].key) {
      ASSERT_LT(items[i - 1].seq, items[i].seq);
    }
  }
}

TEST(RadixSort, EdgeKeyMatchesComparisonSort) {
  using graph::Edge;
  pcq::util::SplitMix64 rng(7);
  std::vector<Edge> edges(30'000);
  for (auto& e : edges)
    e = {static_cast<graph::VertexId>(rng.next()),
         static_cast<graph::VertexId>(rng.next())};
  auto expected = edges;
  std::sort(expected.begin(), expected.end());
  parallel_radix_sort(std::span<Edge>(edges), 8, [](const Edge& e) {
    return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
  });
  EXPECT_EQ(edges, expected);
}

class RadixSortProperty
    : public testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(RadixSortProperty, MatchesStdSort) {
  const auto [n, threads] = GetParam();
  auto v = random_values(n, 31 * n + threads, 0);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parallel_radix_sort_u64(v, threads);
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadixSortProperty,
    testing::Combine(testing::Values<std::size_t>(0, 1, 2, 255, 256, 257, 4096,
                                                  65'537),
                     testing::Values(1, 2, 3, 4, 8, 16, 64)));

/// radix_sort_u32 at key_bits 8 and 11 (one pass), 12 and 22 (two) and 23
/// and 32 (three). One scratch buffer serves every input, as it does for
/// a thread sorting one array per query.
class RadixSortU32 : public testing::TestWithParam<unsigned> {};

TEST_P(RadixSortU32, MatchesStdSort) {
  const unsigned bits = GetParam();
  const std::uint64_t max_key = (std::uint64_t{1} << bits) - 1;
  const auto top = static_cast<std::uint32_t>(max_key);
  std::vector<std::uint32_t> scratch;
  const auto check = [&](std::vector<std::uint32_t> v) {
    auto expected = v;
    std::sort(expected.begin(), expected.end());
    radix_sort_u32(v, bits, scratch);
    EXPECT_EQ(v, expected) << "bits=" << bits << " n=" << v.size();
  };
  check({});
  check({top});
  check({top, 0, top, 1, 0, top - 1, 1});
  pcq::util::SplitMix64 rng(bits);
  for (std::size_t n : {2, 63, 64, 1000, 5000}) {
    std::vector<std::uint32_t> v(n);
    for (auto& x : v)
      x = static_cast<std::uint32_t>(rng.next_below(max_key + 1));
    // Duplicates, as a gathered row set holds them.
    for (std::size_t i = 1; i < n; i += 3) v[i] = v[i - 1];
    v[n / 2] = top;
    check(v);
  }
}

INSTANTIATE_TEST_SUITE_P(Passes, RadixSortU32,
                         testing::Values(8u, 11u, 12u, 22u, 23u, 32u));

TEST(RadixSortU32Bounds, WideKeysStayInBounds) {
  // Keys wider than key_bits sort by their low bits only, and no count
  // index leaves its array: the output is a permutation of the input.
  pcq::util::SplitMix64 rng(11);
  std::vector<std::uint32_t> v(3000);
  for (auto& x : v) x = static_cast<std::uint32_t>(rng.next());
  auto expected = v;
  std::vector<std::uint32_t> scratch;
  radix_sort_u32(v, 8, scratch);
  for (std::size_t i = 1; i < v.size(); ++i)
    ASSERT_LE(v[i - 1] & 0xffu, v[i] & 0xffu);
  std::sort(v.begin(), v.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(v, expected);
}

}  // namespace
}  // namespace pcq::par
