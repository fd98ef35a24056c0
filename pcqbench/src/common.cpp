#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"

namespace pcqbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
volatile std::uint64_t g_sink = 0;
}  // namespace

void keep_alive(std::uint64_t value) { g_sink = g_sink + value; }

void progress(const char* phase) {
  std::fprintf(stderr, "pcqbench: %-28s %8.3f s\n", phase,
               seconds_since(g_process_start));
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},         {"qps", "req/s"},
      {"p50_us", "us"},         {"p95_us", "us"},
      {"peak_rss_mb", "MB"},    {"bytes_per_edge", "B"},
      {"build_s", "s"},         {"analytics_s", "s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"net.mean_us", "us"},
      {"net.bytes_per_req", "B"},
      {"net.protocol_errors", "count"},
      {"svc.queue_wait_mean_us", "us"},
      {"svc.dispatch_mean_us", "us"},
      {"svc.batch_mean", "count"},
      {"svc.flush_deadline_share", "ratio"},
      {"svc.rejected", "count"},
      {"svc.expired", "count"},
      {"csr.build.wall_s", "s"},
      {"csr.build.degree_s", "s"},
      {"csr.build.scan_s", "s"},
      {"csr.build.fill_s", "s"},
      {"csr.build.pack_s", "s"},
      {"csr.build.unattributed_s", "s"},
      {"csr.kernel.batch_us", "us"},
      {"csr.kernel.share_us", "us"},
      {"csr.kernel.ns_per_query", "ns"},
      {"csr.decoded_per_query", "count"},
      {"tcsr.build.wall_s", "s"},
      {"tcsr.build.frame_split_s", "s"},
      {"tcsr.build.frame_build_s", "s"},
      {"tcsr.build.pack_s", "s"},
      {"tcsr.build.unattributed_s", "s"},
      {"tcsr.kernel.batch_us", "us"},
      {"tcsr.kernel.share_us", "us"},
      {"tcsr.kernel.ns_per_query", "ns"},
      {"tcsr.bytes_per_event", "B"},
      {"bits.unpack_mvals_s", "Mvals/s"},
      {"algos.pagerank_s", "s"},
      {"algos.bfs_s", "s"},
      {"algos.cc_s", "s"},
      {"algos.pagerank_iters", "count"},
      {"algos.rss_growth_mb", "MB"},
      {"dyn.compactions", "count"},
      {"dyn.compaction_ms", "ms"},
      {"dyn.apply_batch_us", "us"},
      {"dyn.changed_share", "ratio"},
      {"dyn.delta_bytes_end", "B"},
      {"dyn.kernel.share_us", "us"},
      {"dyn.ambiguous_edges", "count"},
      {"client.mean_us", "us"},
      {"client.p99_us", "us"},
      {"client.samples", "count"},
      {"unattributed_us", "us"},
      {"mem.input_mb", "MB"},
      {"trace.overhead_pct", "%"},
  };
  return specs;
}

Result::Result() {
  for (const MetricSpec& m : end_to_end_metrics()) values_[m.name] = 0;
  for (const MetricSpec& m : per_layer_metrics()) values_[m.name] = 0;
}

void Result::set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end())
    throw std::logic_error("pcqbench: unknown metric " + name);
  it->second = value;
}

void Result::check(bool ok, const std::string& what) {
  notes_.push_back(std::string(ok ? "check ok    " : "CHECK FAILED ") + what);
  if (!ok) correct_ = false;
}

void Result::notef(const char* fmt, ...) {
  char line[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(line, sizeof line, fmt, args);
  va_end(args);
  notes_.push_back(line);
}

void Result::note_reps(const std::string& name,
                       const std::vector<double>& values) {
  std::string line = "reps " + name + "=[";
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6g", i == 0 ? "" : " ", values[i]);
    line += buf;
  }
  notes_.push_back(line + "]");
}

void Result::print(bool trace) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  const auto& specs = trace ? per_layer_metrics() : end_to_end_metrics();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    double v = values_.at(specs[i].name);
    if (!std::isfinite(v)) v = 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, v, specs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return (lo + hi) / 2;
}

double warm_median(const std::vector<double>& values, std::size_t warmup) {
  if (values.size() <= warmup) return median(values);
  return median(std::vector<double>(values.begin() + static_cast<long>(warmup),
                                    values.end()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double percentile(std::vector<float>& values, double q) {
  if (values.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

SpanLog::SpanLog(std::size_t capacity)
    : capacity_(capacity), epoch_(Clock::now()) {}

SpanLog::Total& SpanLog::total_for(const char* name) {
  for (Total& t : totals_)
    if (t.name == name) return t;
  totals_.push_back({name});
  return totals_.back();
}

void SpanLog::record(const char* name, Clock::time_point begin,
                     Clock::time_point end, std::uint64_t id) {
  Total& t = total_for(name);
  t.us += us_between(begin, end);
  ++t.count;
  if (spans_.size() < capacity_) {
    spans_.push_back({name, (begin - epoch_).count(), (end - epoch_).count(),
                      id});
  }
}

double SpanLog::total_us(const char* name) const {
  for (const Total& t : totals_)
    if (t.name == name) return t.us;
  return 0;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                  i == 0 ? "" : ",\n", s.name, s.begin_ns / 1e3,
                  (s.end_ns - s.begin_ns) / 1e3,
                  static_cast<unsigned long long>(s.id));
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace pcqbench
