// pcq::obs — exposition, slow-log and reporter tests: the metric-name
// sanitiser and a lint of every name a registry snapshot renders (sources
// included) against the Prometheus grammar, the text-exposition writer's
// output shape, exact histogram min/max in every output format, the
// bounded slow-query log, and the reporter's interval-delta JSONL lines.
#include "obs/exposition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "csr/builder.hpp"
#include "dyn/hybrid.hpp"
#include "graph/generators.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/reporter.hpp"
#include "obs/slowlog.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace pcq::obs {
namespace {

// ------------------------------------------------------------- sanitiser

TEST(Exposition, ValidNamesPassTheGrammar) {
  EXPECT_TRUE(is_valid_metric_name("svc_queue_wait_us"));
  EXPECT_TRUE(is_valid_metric_name("a"));
  EXPECT_TRUE(is_valid_metric_name("_leading_underscore"));
  EXPECT_TRUE(is_valid_metric_name("colons:are:fine"));
  EXPECT_TRUE(is_valid_metric_name("x123"));
}

TEST(Exposition, InvalidNamesFailTheGrammar) {
  EXPECT_FALSE(is_valid_metric_name(""));
  EXPECT_FALSE(is_valid_metric_name("svc.queue"));    // dots
  EXPECT_FALSE(is_valid_metric_name("9lives"));       // leading digit
  EXPECT_FALSE(is_valid_metric_name("has space"));
  EXPECT_FALSE(is_valid_metric_name("dash-ed"));
}

TEST(Exposition, SanitizeMapsDotsAndLeadingDigits) {
  EXPECT_EQ(sanitize_metric_name("svc.queue_wait_us"), "svc_queue_wait_us");
  EXPECT_EQ(sanitize_metric_name("dyn.hybrid.compactions"),
            "dyn_hybrid_compactions");
  EXPECT_EQ(sanitize_metric_name("9lives"), "_9lives");
  EXPECT_EQ(sanitize_metric_name(""), "_");
}

TEST(Exposition, SanitizeIsTotalAndIdempotent) {
  util::SplitMix64 rng(99);
  for (int i = 0; i < 2000; ++i) {
    std::string raw;
    const std::size_t len = rng.next_below(12);
    for (std::size_t j = 0; j < len; ++j)
      raw.push_back(static_cast<char>(1 + rng.next_below(255)));
    const std::string once = sanitize_metric_name(raw);
    EXPECT_TRUE(is_valid_metric_name(once)) << "raw bytes of length " << len;
    EXPECT_EQ(sanitize_metric_name(once), once);
  }
}

// Exercise representative library paths so their instrumentation registers
// its names, keep every source alive (a QueryService's svc.*, a TcpServer's
// net.*, the process's proc.*), then lint every name one snapshot of the
// global registry renders: each must map to a valid exposition name and no
// two distinct names may collide after sanitisation (a collision would
// silently merge two series).
TEST(Exposition, EveryRegisteredNameSanitizesCleanlyAndUniquely) {
  // csr.builds + svc.* names.
  graph::EdgeList list = graph::rmat(1 << 8, 2'000, 0.57, 0.19, 0.19, 5, 1);
  list.sort(1);
  list.dedupe();
  const auto csr = csr::build_bitpacked_csr_from_sorted(list, 1 << 8, 1);
  svc::QueryService service(csr, nullptr, {});
  svc::Request req;
  req.kind = svc::QueryKind::kDegree;
  req.u = 1;
  service.submit(req).wait();
#ifdef __linux__
  const net::TcpServer server(service, {});  // net.* names
#endif
  // dyn.* names.
  {
    dyn::HybridGraph hybrid(csr);
    const graph::Edge extra[] = {{1, 2}, {3, 4}};
    hybrid.add_edges(extra, 1);
    hybrid.maybe_compact(1);
  }
  // proc.* names.
  const MetricsRegistry::Source process(MetricsRegistry::global(),
                                        add_process_gauges);

  const RegistrySnapshot snap = MetricsRegistry::global().snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : snap.counters) names.push_back(name);
  for (const auto& [name, value] : snap.gauges) names.push_back(name);
  for (const auto& [name, value] : snap.histograms) names.push_back(name);
  for (const char* name : {"svc.completed", "svc.queue_depth",
                           "svc.latency_us", "dyn.hybrid.compactions",
                           "proc.maxrss_kb"})
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
#ifdef __linux__
  EXPECT_NE(std::find(names.begin(), names.end(), "net.frames_in"),
            names.end());
#endif
  std::set<std::string> sanitized;
  for (const std::string& name : names) {
    const std::string clean = sanitize_metric_name(name);
    EXPECT_TRUE(is_valid_metric_name(clean)) << name;
    EXPECT_TRUE(sanitized.insert(clean).second)
        << "sanitisation collision on " << name << " -> " << clean;
  }
}

// ------------------------------------------------------- text exposition

TEST(Exposition, PrometheusOutputParsesPerGrammar) {
  auto& reg = MetricsRegistry::global();
  reg.counter("expo.test.counter").add(3);
  reg.gauge("expo.test.gauge").set(-7);
  auto& h = reg.histogram("expo.test.hist_us");
  for (std::uint64_t v : {1u, 10u, 100u, 1000u}) h.record(v);

  std::ostringstream out;
  write_prometheus(reg, out);
  const std::string text = out.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');

  std::istringstream lines(text);
  std::string line;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      // "# TYPE <name> <counter|gauge|summary>"
      std::istringstream fields(line);
      std::string hash, kw, name, type;
      ASSERT_TRUE(fields >> hash >> kw >> name >> type) << line;
      EXPECT_EQ(hash, "#");
      EXPECT_EQ(kw, "TYPE");
      EXPECT_TRUE(is_valid_metric_name(name)) << line;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "summary")
          << line;
      continue;
    }
    // "<name>[{labels}] <value>"
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      name.resize(brace);
    }
    EXPECT_TRUE(is_valid_metric_name(name)) << line;
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable sample value in: " << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);

  EXPECT_NE(text.find("# TYPE expo_test_counter counter"), std::string::npos);
  EXPECT_NE(text.find("expo_test_gauge -7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE expo_test_hist_us summary"), std::string::npos);
  EXPECT_NE(text.find("expo_test_hist_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("expo_test_hist_us_count 4"), std::string::npos);
  EXPECT_NE(text.find("expo_test_hist_us_sum 1111"), std::string::npos);
  EXPECT_NE(text.find("expo_test_hist_us_min 1"), std::string::npos);
  EXPECT_NE(text.find("expo_test_hist_us_max 1000"), std::string::npos);
}

// ------------------------------------------------------ histogram min/max

TEST(HistogramMinMax, ExactAcrossSnapshotTextAndJson) {
  LogHistogram h;
  EXPECT_EQ(h.snapshot().min(), 0u);  // empty normalises to 0
  EXPECT_EQ(h.snapshot().max(), 0u);
  h.record(17);
  h.record(123456);
  h.record(42);
  const LogHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.min(), 17u);
  EXPECT_EQ(s.max(), 123456u);

  auto& reg = MetricsRegistry::global();
  reg.histogram("expo.minmax.hist").record(17);
  reg.histogram("expo.minmax.hist").record(123456);
  std::ostringstream text, json;
  reg.write_text(text);
  reg.write_json(json);
  EXPECT_NE(text.str().find("min 17"), std::string::npos);
  EXPECT_NE(text.str().find("max 123456"), std::string::npos);
  EXPECT_NE(json.str().find("\"min\":17"), std::string::npos);
  EXPECT_NE(json.str().find("\"max\":123456"), std::string::npos);
}

// -------------------------------------------------------------- slow log

TEST(SlowLog, BoundedDropOldest) {
  SlowLog log;  // a private instance; global() is exercised in test_admin
  log.set_capacity(4);
  EXPECT_EQ(log.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    SlowQuery q;
    q.trace_id = i;
    q.total_us = 1000 + i;
    log.record(q);
  }
  EXPECT_EQ(log.captured(), 10u);
  const std::vector<SlowQuery> snap = log.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < snap.size(); ++i)
    EXPECT_EQ(snap[i].trace_id, 6 + i);  // oldest first, newest retained
}

TEST(SlowLog, ShrinkingCapacityEvictsImmediately) {
  SlowLog log;
  log.set_capacity(8);
  for (std::uint64_t i = 0; i < 8; ++i) {
    SlowQuery q;
    q.trace_id = i;
    log.record(q);
  }
  log.set_capacity(2);
  const std::vector<SlowQuery> snap = log.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].trace_id, 6u);
  EXPECT_EQ(snap[1].trace_id, 7u);
}

TEST(SlowLog, ThresholdRoundTripsAndClearResets) {
  SlowLog log;
  EXPECT_EQ(log.threshold_us(), 0u);  // sampling off by default
  log.set_threshold_us(2500);
  EXPECT_EQ(log.threshold_us(), 2500u);
  SlowQuery q;
  q.trace_id = 7;
  log.record(q);
  EXPECT_EQ(log.captured(), 1u);
  log.clear();
  EXPECT_EQ(log.captured(), 0u);
  EXPECT_TRUE(log.snapshot().empty());
  EXPECT_EQ(log.threshold_us(), 2500u);  // clear keeps the configuration
}

TEST(SlowLog, WriteJsonCarriesEveryField) {
  SlowLog log;
  log.set_threshold_us(100);
  SlowQuery q;
  q.trace_id = 77;
  q.kind = 2;
  q.status = 0;
  q.u = 5;
  q.v = 6;
  q.total_us = 1234;
  q.queue_us = 1000;
  q.service_us = 234;
  q.batch_size = 9;
  q.shard = 1;
  log.record(q);
  std::ostringstream out;
  log.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"threshold_us\":100"), std::string::npos);
  EXPECT_NE(json.find("\"captured\":1"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":77"), std::string::npos);
  EXPECT_NE(json.find("\"total_us\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"queue_us\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"service_us\":234"), std::string::npos);
  EXPECT_NE(json.find("\"batch_size\":9"), std::string::npos);
}

// -------------------------------------------------------------- reporter

TEST(Reporter, TickEmitsIntervalDeltaJsonl) {
  auto& reg = MetricsRegistry::global();
  auto& counter = reg.counter("expo.reporter.events");
  Reporter reporter;
  bool sampled = false;
  const MetricsRegistry::Source level(reg, [&](RegistrySnapshot& out) {
    sampled = true;
    out.gauges["expo.reporter.level"] += 42;
  });

  counter.add(5);
  std::ostringstream first;
  reporter.tick(first);
  EXPECT_TRUE(sampled);
  const std::string line1 = first.str();
  EXPECT_EQ(line1.back(), '\n');
  EXPECT_EQ(line1.find('\n'), line1.size() - 1) << "one JSONL line per tick";
  EXPECT_NE(line1.find("\"ts_ms\":"), std::string::npos);
  EXPECT_NE(line1.find("\"interval_s\":"), std::string::npos);
  EXPECT_NE(line1.find("\"expo.reporter.level\":42"), std::string::npos);

  // The second tick reports the delta since the first: total is cumulative,
  // and a quiet counter has rate 0.
  counter.add(3);
  std::ostringstream second;
  reporter.tick(second);
  const std::string line2 = second.str();
  const std::size_t at = line2.find("\"expo.reporter.events\":");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(line2.find("\"total\":", at), std::string::npos);
  EXPECT_NE(line2.find("\"rate\":", at), std::string::npos);
}

}  // namespace
}  // namespace pcq::obs
