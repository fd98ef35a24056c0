#include "par/radix_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
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
    testing::Combine(testing::Values<std::size_t>(0, 1, 2, 255, 256, 257, 2047,
                                                  2048, 2049, 4096, 10'000,
                                                  65'537, 131'072),
                     testing::Values(1, 2, 3, 4, 8, 16, 64)));

// --- The edge sorters: EdgeList::sort and TemporalEdgeList::sort ----------

using graph::Edge;
using graph::EdgeList;
using graph::TemporalEdge;
using graph::TemporalEdgeList;
using graph::VertexId;

constexpr int kThreadCounts[] = {1, 2, 3, 4, 8, 16, 64};
constexpr VertexId kMaxId = std::numeric_limits<VertexId>::max();

/// EdgeList::sort at every p in kThreadCounts equals std::sort.
void expect_edge_sort_matches_std(const std::vector<Edge>& edges) {
  auto expected = edges;
  std::sort(expected.begin(), expected.end());
  for (int p : kThreadCounts) {
    EdgeList list(edges);
    list.sort(p);
    ASSERT_TRUE(std::ranges::equal(list.edges(), expected))
        << "n=" << edges.size() << " p=" << p;
  }
}

/// TemporalEdgeList::sort at every p in kThreadCounts equals std::sort
/// with TimeSourceOrder.
void expect_event_sort_matches_std(const std::vector<TemporalEdge>& events) {
  auto expected = events;
  std::sort(expected.begin(), expected.end(), graph::TimeSourceOrder{});
  for (int p : kThreadCounts) {
    TemporalEdgeList list(events);
    list.sort(p);
    ASSERT_TRUE(std::ranges::equal(list.edges(), expected))
        << "n=" << events.size() << " p=" << p;
    ASSERT_TRUE(list.is_sorted());
  }
}

/// An id below `bound`, or one of the 64 ids just below 2^32 when `bound`
/// is 0.
VertexId draw_id(pcq::util::SplitMix64& rng, std::uint64_t bound) {
  if (bound == 0) return kMaxId - static_cast<VertexId>(rng.next_below(64));
  return static_cast<VertexId>(rng.next_below(bound));
}

TEST(ParallelSort, EmptyAndTiny) {
  expect_edge_sort_matches_std({});
  expect_edge_sort_matches_std({{3, 1}});
  expect_edge_sort_matches_std({{3, 1}, {1, 2}, {2, 0}});
  expect_event_sort_matches_std({});
  expect_event_sort_matches_std({{3, 1, 2}, {1, 2, 0}, {2, 0, 1}});
}

TEST(ParallelSort, AlreadySorted) {
  std::vector<Edge> edges(10'000);
  for (VertexId i = 0; i < edges.size(); ++i) edges[i] = {i / 7, i % 7 * 3};
  expect_edge_sort_matches_std(edges);
}

TEST(ParallelSort, ReverseSorted) {
  std::vector<Edge> edges(10'000);
  for (VertexId i = 0; i < edges.size(); ++i) edges[i] = {i / 7, i % 7 * 3};
  std::reverse(edges.begin(), edges.end());
  expect_edge_sort_matches_std(edges);
}

TEST(ParallelSort, ManyDuplicates) {
  // 16 distinct edges, ~3000 copies each.
  pcq::util::SplitMix64 rng(3);
  std::vector<Edge> edges(50'000);
  for (auto& e : edges) e = {draw_id(rng, 4), draw_id(rng, 4)};
  expect_edge_sort_matches_std(edges);
}

TEST(ParallelSort, EdgeStructOrdering) {
  pcq::util::SplitMix64 rng(11);
  std::vector<Edge> edges(30'000);
  for (auto& e : edges) e = {draw_id(rng, 100), draw_id(rng, 100)};
  expect_edge_sort_matches_std(edges);
}

TEST(ParallelSort, TemporalEdgeTimeSourceOrder) {
  // Small ranges tie many events on t and on (t, u); the ids and frames
  // near 2^32 fill every digit of both passes' keys.
  pcq::util::SplitMix64 rng(13);
  std::vector<TemporalEdge> events(30'000);
  for (auto& e : events)
    e = {draw_id(rng, 50), draw_id(rng, 50), draw_id(rng, 20)};
  expect_event_sort_matches_std(events);
  for (auto& e : events) {
    const std::uint64_t bound = rng.next_below(2) == 0 ? 0 : 1ull << 32;
    e = {draw_id(rng, bound), draw_id(rng, bound), draw_id(rng, bound)};
  }
  events.push_back({kMaxId, kMaxId, kMaxId});
  events.push_back({0, 0, kMaxId});
  events.push_back({kMaxId, kMaxId, 0});
  expect_event_sort_matches_std(events);
}

class ParallelSortProperty
    : public testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(ParallelSortProperty, MatchesStdSort) {
  // EdgeList::sort on n edges whose ids grow with n, as a graph's do.
  const auto [n, threads] = GetParam();
  pcq::util::SplitMix64 rng(77 + n * 31 + threads);
  std::vector<Edge> edges(n);
  for (auto& e : edges) e = {draw_id(rng, 2 * n + 1), draw_id(rng, 2 * n + 1)};
  auto expected = edges;
  std::sort(expected.begin(), expected.end());
  EdgeList list(std::move(edges));
  list.sort(threads);
  EXPECT_TRUE(std::ranges::equal(list.edges(), expected));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelSortProperty,
    testing::Combine(testing::Values<std::size_t>(0, 1, 2, 100, 2047, 2048,
                                                  2049, 10'000, 131'072),
                     testing::Values(1, 2, 3, 4, 8, 16, 64)));

TEST(EdgeListSort, MatchesStdSortOnRmat) {
  for (std::uint64_t seed : {1u, 7u, 19u}) {
    const EdgeList g = graph::rmat(1 << 12, 40'000, 0.57, 0.19, 0.19, seed, 4);
    expect_edge_sort_matches_std({g.edges().begin(), g.edges().end()});
  }
}

TEST(EdgeListSort, IdsNear2To32) {
  // A key width of 32: u fills the key's upper half, v its lower half.
  pcq::util::SplitMix64 rng(3);
  std::vector<Edge> edges(5000);
  for (auto& e : edges) {
    const std::uint64_t bound = rng.next_below(2) == 0 ? 0 : 1ull << 32;
    e = {draw_id(rng, bound), draw_id(rng, bound)};
  }
  edges.push_back({kMaxId, kMaxId});
  edges.push_back({kMaxId, 0});
  edges.push_back({0, kMaxId});
  expect_edge_sort_matches_std(edges);
}

TEST(EdgeListSort, AllDestinationsZero) {
  // Every v = 0 makes the key width 0: the key is u alone.
  pcq::util::SplitMix64 rng(5);
  std::vector<Edge> edges(5000);
  for (auto& e : edges) e = {draw_id(rng, rng.next_below(2) == 0 ? 0 : 300), 0};
  expect_edge_sort_matches_std(edges);
}

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
