#include "obs/reporter.hpp"

#include <cstdio>
#include <utility>

#include "obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace pcq::obs {

void Reporter::tick(std::ostream& out) {
  RegistrySnapshot snap = MetricsRegistry::global().snapshot();
  const auto now = std::chrono::steady_clock::now();
  const double interval_s =
      std::chrono::duration<double>(now - prev_tick_).count();
  const double uptime_s =
      std::chrono::duration<double>(now - started_).count();
  const auto ts_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();

  char buf[128];
  std::snprintf(buf, sizeof buf,
                "{\"ts_ms\":%lld,\"uptime_s\":%.3f,\"interval_s\":%.3f,"
                "\"counters\":{",
                static_cast<long long>(ts_ms), uptime_s, interval_s);
  out << buf;
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    const auto it = prev_counters_.find(name);
    const std::uint64_t prev = it == prev_counters_.end() ? 0 : it->second;
    // A reset() between ticks makes value < prev; clamp the delta to 0
    // rather than reporting a huge wrapped rate.
    const std::uint64_t delta = value >= prev ? value - prev : 0;
    const double rate =
        interval_s > 0 ? static_cast<double>(delta) / interval_s : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"total\":%llu,\"rate\":%.3f}",
                  first ? "" : ",", name.c_str(),
                  static_cast<unsigned long long>(value), rate);
    out << buf;
    first = false;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    std::snprintf(buf, sizeof buf, "%s\"%s\":%lld", first ? "" : ",",
                  name.c_str(), static_cast<long long>(value));
    out << buf;
    first = false;
  }
  out << "}}\n";
  prev_counters_ = std::move(snap.counters);
  prev_tick_ = now;
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

bool Reporter::start(ReporterOptions options) {
  if (running_.load(std::memory_order_acquire)) return true;
  options_ = std::move(options);
  out_.open(options_.jsonl_path, std::ios::app);
  if (!out_) return false;
  {
    util::MutexLock lock(stop_mu_);
    stop_requested_ = false;
  }
  started_ = prev_tick_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
  return true;
}

void Reporter::loop() {
  for (;;) {
    {
      // Explicit predicate loop in the locked scope (not a wait lambda),
      // so the capability analysis sees every stop_requested_ read under
      // stop_mu_. A timeout with no stop request falls through to the tick.
      util::MutexLock lock(stop_mu_);
      const auto deadline =
          std::chrono::steady_clock::now() + options_.interval;
      while (!stop_requested_) {
        if (stop_cv_.wait_until(lock, deadline) == std::cv_status::timeout)
          break;
      }
      if (stop_requested_) break;
    }
    tick(out_);
    out_.flush();
  }
  // Final line: a run shorter than one interval still leaves a data point.
  tick(out_);
  out_.flush();
  out_.close();
}

void Reporter::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    util::MutexLock lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void add_process_gauges([[maybe_unused]] RegistrySnapshot& snapshot) {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return;
  // ru_maxrss is kilobytes on Linux (bytes on macOS; close enough for a
  // trend gauge there — exactness matters on the deploy target).
  snapshot.gauges["proc.maxrss_kb"] += static_cast<std::int64_t>(ru.ru_maxrss);
  snapshot.gauges["proc.user_cpu_ms"] +=
      ru.ru_utime.tv_sec * 1000 + ru.ru_utime.tv_usec / 1000;
  snapshot.gauges["proc.sys_cpu_ms"] +=
      ru.ru_stime.tv_sec * 1000 + ru.ru_stime.tv_usec / 1000;
#endif
}

}  // namespace pcq::obs
