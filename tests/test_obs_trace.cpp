// Tests for the pcq::obs span tracer: ring recording, wrap/loss
// accounting under concurrent writers, collection ordering, and the
// Chrome trace JSON export. The compile-time OFF proof lives in
// obs_trace_off_check.cpp (a compile-only TU with PCQ_TRACE_ENABLED=0).
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace {

using pcq::obs::CollectedSpan;
using pcq::obs::TraceStats;

static_assert(pcq::obs::kTraceCompiledIn,
              "the test suite builds with the tracer compiled in");
static_assert(std::is_empty_v<pcq::obs::NullTraceScope>,
              "the OFF-build scope type must carry no state");

/// Every test starts from a clean, enabled tracer and leaves it disabled.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pcq::obs::reset_trace();
    pcq::obs::set_trace_enabled(true);
  }
  void TearDown() override {
    pcq::obs::set_trace_enabled(false);
    pcq::obs::reset_trace();
  }
};

TEST_F(TraceTest, DisabledScopeRecordsNothing) {
  pcq::obs::set_trace_enabled(false);
  { PCQ_TRACE_SCOPE("should-not-appear", 7); }
  pcq::obs::record_span("also-not", 1, 2, 3);
  EXPECT_TRUE(pcq::obs::collect_trace().empty());
}

TEST_F(TraceTest, ScopeRecordsNameArgAndOrderedTimes) {
  { PCQ_TRACE_SCOPE("unit-span", 42); }
  const auto spans = pcq::obs::collect_trace();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "unit-span");
  EXPECT_EQ(spans[0].arg, 42u);
  EXPECT_LE(spans[0].start_ns, spans[0].end_ns);
}

TEST_F(TraceTest, ExplicitRecordSpanRoundTrips) {
  pcq::obs::record_span("explicit", 100, 250, 9);
  const auto spans = pcq::obs::collect_trace();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "explicit");
  EXPECT_EQ(spans[0].start_ns, 100u);
  EXPECT_EQ(spans[0].end_ns, 250u);
}

TEST_F(TraceTest, ConcurrentWritersWrapWithExactLossAccounting) {
  // 8 writers, each overflowing its own ring: written must exceed the
  // per-ring capacity so wrap-dropping kicks in, and at quiescence the
  // books must balance exactly: written == collected + dropped.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread =
      pcq::obs::detail::TraceRing::kCapacity + 1500;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        pcq::obs::record_span("load", i, i + 1,
                              static_cast<std::uint64_t>(t));
    });
  }
  for (auto& w : writers) w.join();

  const auto spans = pcq::obs::collect_trace();
  const TraceStats stats = pcq::obs::trace_stats();
  EXPECT_EQ(stats.written, kThreads * kPerThread);
  EXPECT_EQ(stats.written, spans.size() + stats.dropped);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GE(stats.threads, static_cast<std::uint64_t>(kThreads));

  // Every ring keeps its newest events: with per-thread args 0..N-1, the
  // collected set per writer must be the contiguous tail.
  std::vector<std::uint64_t> max_start(kThreads, 0);
  std::vector<std::uint64_t> count(kThreads, 0);
  for (const CollectedSpan& s : spans) {
    ASSERT_LT(s.arg, static_cast<std::uint64_t>(kThreads));
    max_start[s.arg] = std::max(max_start[s.arg], s.start_ns);
    ++count[s.arg];
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(max_start[t], kPerThread - 1) << "writer " << t;
    EXPECT_EQ(count[t], pcq::obs::detail::TraceRing::kCapacity)
        << "writer " << t;
  }
}

TEST_F(TraceTest, CollectedSpansAreTimeOrderedPerThread) {
  constexpr int kThreads = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (std::uint64_t i = 0; i < 500; ++i) PCQ_TRACE_SCOPE("ordered", i);
    });
  }
  for (auto& w : writers) w.join();
  const auto spans = pcq::obs::collect_trace();
  ASSERT_EQ(spans.size(), kThreads * 500u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].tid != spans[i - 1].tid) {
      EXPECT_GT(spans[i].tid, spans[i - 1].tid);  // lanes grouped
      continue;
    }
    EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
  }
}

TEST_F(TraceTest, ChromeTraceJsonIsStructurallyValid) {
  pcq::obs::record_span("phase.a", 1000, 3000, 5);
  pcq::obs::record_span("needs \"escaping\" \\ here", 4000, 5000);
  std::ostringstream out;
  pcq::obs::write_chrome_trace(out);
  const std::string json = out.str();

  // Shape: a single object holding the traceEvents array, one metadata
  // event plus one complete event per span.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase.a\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);  // 2000 ns -> us
  EXPECT_NE(json.find("\"arg\":5"), std::string::npos);
  // Quotes and backslashes in names must come out escaped.
  EXPECT_NE(json.find("needs \\\"escaping\\\" \\\\ here"),
            std::string::npos);
  // Balanced delimiters outside strings — cheap structural validity check
  // mirroring what the CLI test verifies with python3 -m json.tool.
  int depth = 0;
  bool in_string = false, escaped = false;
  for (const char c : json) {
    if (escaped) { escaped = false; continue; }
    if (c == '\\') { escaped = true; continue; }
    if (c == '"') { in_string = !in_string; continue; }
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST_F(TraceTest, PhaseTableAggregatesByName) {
  pcq::obs::record_span("alpha", 0, 1000);
  pcq::obs::record_span("alpha", 2000, 4000);
  pcq::obs::record_span("beta", 0, 500);
  std::ostringstream out;
  pcq::obs::write_phase_table(out);
  const std::string table = out.str();
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
  EXPECT_NE(table.find("spans on"), std::string::npos);
}

TEST_F(TraceTest, ResetForgetsSpansAndAccounting) {
  for (int i = 0; i < 10; ++i) PCQ_TRACE_SCOPE("gone");
  pcq::obs::reset_trace();
  EXPECT_TRUE(pcq::obs::collect_trace().empty());
  const TraceStats stats = pcq::obs::trace_stats();
  EXPECT_EQ(stats.written, 0u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST_F(TraceTest, CollectorRunsConcurrentlyWithWriters) {
  // Drain while a writer is live: no crash, no torn reads surfacing as
  // null names, and every drained span is well-formed. (TSan builds make
  // this a real seqlock race test.)
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      pcq::obs::record_span("live", i, i + 1, i);
      ++i;
    }
  });
  for (int round = 0; round < 50; ++round) {
    const auto spans = pcq::obs::collect_trace();
    for (const CollectedSpan& s : spans) {
      ASSERT_NE(s.name, nullptr);
      ASSERT_LE(s.start_ns, s.end_ns);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

}  // namespace
