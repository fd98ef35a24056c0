// Tests for the pcq::obs metrics registry — its own series and the
// sources it renders beside them, including a QueryService and a
// TcpServer coming and going under concurrent snapshots — and the
// geometric-midpoint quantile of LogHistogram (the histogram's bucket
// mechanics are covered by test_svc_metrics.cpp, which exercises the same
// class through the pcq::svc re-export).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "csr/builder.hpp"
#include "graph/generators.hpp"
#include "net/server.hpp"
#include "obs/exposition.hpp"
#include "svc/service.hpp"

namespace {

using pcq::obs::Counter;
using pcq::obs::Gauge;
using pcq::obs::LogHistogram;
using pcq::obs::MetricsRegistry;
using pcq::obs::RegistrySnapshot;

TEST(ObsMetricsRegistry, SameNameYieldsSameObject) {
  MetricsRegistry reg;
  Counter& a = reg.counter("svc.flush.size");
  Counter& b = reg.counter("svc.flush.size");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &reg.counter("svc.flush.deadline"));
  EXPECT_EQ(&reg.gauge("svc.window_us"), &reg.gauge("svc.window_us"));
  EXPECT_EQ(&reg.histogram("svc.wait_us"), &reg.histogram("svc.wait_us"));
}

TEST(ObsMetricsRegistry, KindsShareANamespacePerKindOnly) {
  MetricsRegistry reg;
  // The same name can back a counter and a gauge independently — kinds
  // live in separate maps.
  reg.counter("x").add(3);
  reg.gauge("x").set(-7);
  EXPECT_EQ(reg.counter("x").value(), 3u);
  EXPECT_EQ(reg.gauge("x").value(), -7);
}

TEST(ObsMetricsRegistry, ConcurrentCounterAddsAreLossless) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kAdds = 20'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add(1);
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(ObsMetricsRegistry, WriteTextListsSortedNamesWithValues) {
  MetricsRegistry reg;
  reg.counter("b.count").add(2);
  reg.counter("a.count").add(1);
  reg.gauge("c.level").set(-4);
  reg.histogram("d.us").record(100);
  std::ostringstream out;
  reg.write_text(out);
  const std::string text = out.str();
  const auto pos_a = text.find("a.count 1");
  const auto pos_b = text.find("b.count 2");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
  EXPECT_NE(text.find("c.level -4"), std::string::npos);
  EXPECT_NE(text.find("d.us"), std::string::npos);
}

TEST(ObsMetricsRegistry, WriteJsonIsOneObject) {
  MetricsRegistry reg;
  reg.counter("a").add(5);
  reg.histogram("h").record(42);
  std::ostringstream out;
  reg.write_json(out);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"a\":5"), std::string::npos);
  EXPECT_NE(json.find("\"h\""), std::string::npos);
}

TEST(ObsMetricsRegistry, ResetZeroesButKeepsReferences) {
  MetricsRegistry reg;
  Counter& c = reg.counter("n");
  Gauge& g = reg.gauge("g");
  LogHistogram& h = reg.histogram("h");
  c.add(9);
  g.set(3);
  h.record(1000);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.snapshot().count, 0u);
  c.add(1);  // the pre-reset reference still records
  EXPECT_EQ(reg.counter("n").value(), 1u);
}

TEST(ObsMetricsRegistry, GlobalIsAProcessSingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

// ---------------------------------------------------------------- sources

/// Count of lines in `text` that start with `prefix`.
std::size_t lines_starting_with(const std::string& text,
                                const std::string& prefix) {
  std::istringstream lines(text);
  std::size_t n = 0;
  for (std::string line; std::getline(lines, line);)
    if (line.rfind(prefix, 0) == 0) ++n;
  return n;
}

TEST(ObsRegistrySource, SameNamedSeriesSumAndMerge) {
  MetricsRegistry reg;
  reg.counter("src.events").add(1);  // the registry's own series joins in
  LogHistogram h1, h2;
  h1.record(10);
  h1.record(20);
  h2.record(5);
  h2.record(4000);
  const auto source = [](std::uint64_t events, std::int64_t level,
                         const LogHistogram& h) {
    return [events, level, &h](RegistrySnapshot& out) {
      out.counters["src.events"] += events;
      out.gauges["src.level"] += level;
      h.accumulate(out.histograms["src.lat_us"]);
    };
  };
  const MetricsRegistry::Source a(reg, source(2, 4, h1));
  const MetricsRegistry::Source b(reg, source(3, -1, h2));

  const RegistrySnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("src.events"), 6u);
  EXPECT_EQ(snap.gauges.at("src.level"), 3);
  const LogHistogram::Snapshot& lat = snap.histograms.at("src.lat_us");
  EXPECT_EQ(lat.count, 4u);
  EXPECT_EQ(lat.sum, 4035u);
  EXPECT_EQ(lat.min(), 5u);
  EXPECT_EQ(lat.max(), 4000u);

  // Every rendering shows one series per name, with the summed value.
  std::ostringstream text, json, prom;
  reg.write_text(text);
  reg.write_json(json);
  pcq::obs::write_prometheus(reg, prom);
  EXPECT_EQ(lines_starting_with(text.str(), "src.events "), 1u);
  EXPECT_NE(text.str().find("src.events 6\n"), std::string::npos);
  EXPECT_NE(text.str().find("src.level 3\n"), std::string::npos);
  EXPECT_EQ(lines_starting_with(text.str(), "src.lat_us count 4 "), 1u);
  EXPECT_NE(json.str().find("\"src.events\":6,"), std::string::npos);
  EXPECT_EQ(lines_starting_with(prom.str(), "# TYPE src_events counter"), 1u);
  EXPECT_EQ(lines_starting_with(prom.str(), "# TYPE src_level gauge"), 1u);
  EXPECT_EQ(lines_starting_with(prom.str(), "# TYPE src_lat_us summary"), 1u);
  EXPECT_NE(prom.str().find("src_lat_us_count 4\n"), std::string::npos);
}

TEST(ObsRegistrySource, DestroyedSourceLeavesTheNextSnapshot) {
  MetricsRegistry reg;
  reg.counter("own.events").add(1);
  {
    const MetricsRegistry::Source source(reg, [](RegistrySnapshot& out) {
      out.counters["gone.events"] += 1;
      out.gauges["gone.level"] += 1;
      out.histograms["gone.lat_us"].count += 1;
    });
    const RegistrySnapshot live = reg.snapshot();
    EXPECT_EQ(live.counters.count("gone.events"), 1u);
    EXPECT_EQ(live.gauges.count("gone.level"), 1u);
    EXPECT_EQ(live.histograms.count("gone.lat_us"), 1u);
  }
  const RegistrySnapshot after = reg.snapshot();
  EXPECT_EQ(after.counters.count("gone.events"), 0u);
  EXPECT_EQ(after.gauges.count("gone.level"), 0u);
  EXPECT_EQ(after.histograms.count("gone.lat_us"), 0u);
  EXPECT_EQ(after.counters.at("own.events"), 1u);
}

// One thread snapshots the global registry in a loop while this one builds
// and tears down a QueryService and a TcpServer, each a source for its
// lifetime: a snapshot sees a source fully built or not at all, and a
// destructor waits out the snapshot reading it (clean under the sanitizer
// presets, whose TSan lock-order check covers registry mutex -> queue
// mutex). Afterwards no svc.* or net.* series is left behind.
TEST(ObsRegistrySource, SnapshotsRaceServiceAndServerLifetimes) {
  pcq::graph::EdgeList list =
      pcq::graph::rmat(1 << 8, 2'000, 0.57, 0.19, 0.19, 5, 1);
  list.sort(1);
  list.dedupe();
  const auto csr = pcq::csr::build_bitpacked_csr_from_sorted(list, 1 << 8, 1);
  auto& reg = MetricsRegistry::global();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> live_snapshots{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const RegistrySnapshot snap = reg.snapshot();
      if (snap.counters.count("svc.completed") != 0)
        live_snapshots.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // At least 20 rounds, and on until the scraper has caught a live source.
  for (int round = 0; round < 5'000; ++round) {
    if (round >= 20 && live_snapshots.load(std::memory_order_relaxed) > 0)
      break;
    pcq::svc::ServiceConfig config;
    config.shards = 2;
    pcq::svc::QueryService service(csr, nullptr, config);
#ifdef __linux__
    const pcq::net::TcpServer server(service, {});
#endif
    pcq::svc::Request req;
    req.kind = pcq::svc::QueryKind::kDegree;
    req.u = static_cast<pcq::graph::VertexId>(round % (1 << 8));
    EXPECT_EQ(service.submit(req).get().status, pcq::svc::Status::kOk);
  }
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(live_snapshots.load(std::memory_order_relaxed), 0u);

  const RegistrySnapshot after = reg.snapshot();
  EXPECT_EQ(after.counters.count("svc.completed"), 0u);
  EXPECT_EQ(after.gauges.count("svc.queue_depth"), 0u);
  EXPECT_EQ(after.counters.count("net.frames_in"), 0u);
  EXPECT_EQ(after.gauges.count("net.open_conns"), 0u);
}

TEST(ObsLogHistogram, QuantileIsGeometricMidpointOfWinningBucket) {
  LogHistogram h;
  h.record(1000);
  const auto snap = h.snapshot();
  const int bucket = LogHistogram::bucket_index(1000);
  const double lo = static_cast<double>(LogHistogram::bucket_floor(bucket));
  const double hi =
      static_cast<double>(LogHistogram::bucket_floor(bucket + 1));
  const double q = snap.quantile(0.5);
  EXPECT_DOUBLE_EQ(q, std::sqrt(lo * hi));
  // The estimate never leaves the bucket that holds the sample, and the
  // relative error against the true value is within the documented bound.
  EXPECT_GE(q, lo);
  EXPECT_LT(q, hi);
  EXPECT_LT(std::abs(q - 1000.0) / 1000.0,
            std::sqrt(1.0 + 1.0 / LogHistogram::kSub) - 1.0 + 1e-9);
}

TEST(ObsLogHistogram, SmallValuesHaveExactQuantiles) {
  LogHistogram h;
  for (std::uint64_t v : {0, 1, 2, 3}) h.record(v);
  const auto snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 3.0);
}

}  // namespace
