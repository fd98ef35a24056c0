#include "svc/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace pcq::svc {
namespace {

TEST(LogHistogram, BucketIndexIsMonotoneAndConsistentWithFloor) {
  int prev = -1;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 5ull, 7ull, 8ull,
                          9ull, 15ull, 16ull, 100ull, 1000ull, 123456ull,
                          1ull << 30, 1ull << 45}) {
    const int idx = LogHistogram::bucket_index(v);
    EXPECT_GE(idx, prev) << v;
    prev = idx;
    // The bucket's floor must not exceed the value, and the next bucket's
    // floor must exceed it (within the histogram's range).
    EXPECT_LE(LogHistogram::bucket_floor(idx), v) << v;
    if (idx + 1 < LogHistogram::kBuckets) {
      EXPECT_GT(LogHistogram::bucket_floor(idx + 1), v) << v;
    }
  }
}

TEST(LogHistogram, SmallValuesAreExact) {
  LogHistogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 6u);
  EXPECT_DOUBLE_EQ(s.mean(), 1.5);
  // Sub-kSub values occupy their own buckets, so quantiles are exact-ish.
  EXPECT_LE(s.quantile(0.24), 1.0);
  EXPECT_GE(s.quantile(0.99), 3.0);
}

TEST(LogHistogram, QuantilesWithinBucketResolution) {
  LogHistogram h;
  for (std::uint64_t i = 1; i <= 10'000; ++i) h.record(i);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 10'000u);
  // Log-linear buckets with 4 sub-buckets are accurate to ~25% worst case;
  // check the envelope rather than exact values.
  EXPECT_NEAR(s.quantile(0.5), 5000.0, 5000.0 * 0.3);
  EXPECT_NEAR(s.quantile(0.99), 9900.0, 9900.0 * 0.3);
  EXPECT_DOUBLE_EQ(s.mean(), 5000.5);
}

TEST(LogHistogram, EmptyQuantileIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.snapshot().quantile(0.99), 0.0);
}

TEST(LogHistogram, AccumulateMergesShards) {
  LogHistogram a, b;
  a.record(10);
  b.record(20);
  b.record(30);
  LogHistogram::Snapshot merged;
  a.accumulate(merged);
  b.accumulate(merged);
  EXPECT_EQ(merged.count, 3u);
  EXPECT_EQ(merged.sum, 60u);
}

// TSan target: concurrent recorders on one histogram must be race-free and
// lose no samples (all paths are relaxed atomics).
TEST(LogHistogram, ConcurrentRecordingLosesNothing) {
  LogHistogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPer = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPer; ++i)
        h.record(static_cast<std::uint64_t>(t) + i % 97);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.snapshot().count, kThreads * kPer);
}

}  // namespace
}  // namespace pcq::svc
