// pcq::obs — periodic telemetry reporter: interval-delta snapshots of the
// MetricsRegistry exported as a JSONL time series.
//
// The registry's counters are monotonic by design; what an operator wants
// on a chart is rates. The reporter owns one background thread that every
// `interval` takes one MetricsRegistry::snapshot() — the registry's own
// series plus every live source's (a QueryService's svc.*, a TcpServer's
// net.*, the process source's proc.*) — differences the counters against
// the previous tick, and appends ONE JSON object line to the configured
// file: {"ts_ms":..,"uptime_s":..,"interval_s":..,
// "counters":{name:{"total":..,"rate":..}},"gauges":{name:..}}.
//
// tick(out) exposes a single snapshot-delta step for tests and one-shot
// tools; start()/stop() manage the background thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "util/thread_annotations.hpp"

namespace pcq::obs {

struct RegistrySnapshot;

struct ReporterOptions {
  std::chrono::milliseconds interval{1000};
  /// JSONL output path; appended to (a serving process restarted onto the
  /// same path extends the series).
  std::string jsonl_path;
};

class Reporter {
 public:
  Reporter() = default;
  ~Reporter() { stop(); }
  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  /// Starts the background thread. Returns false (and does not start) when
  /// the JSONL file cannot be opened. No-op when already running.
  bool start(ReporterOptions options);

  /// Stops and joins the background thread, flushing a final line so short
  /// runs still produce a series. Idempotent.
  void stop() PCQ_EXCLUDES(stop_mu_);

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// Completed ticks (lines written).
  [[nodiscard]] std::uint64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

  /// One snapshot + interval-delta step, writing one JSONL line to `out`.
  /// The delta baseline persists across calls (first call reports rates
  /// since construction). Exposed for tests and one-shot tools; do not mix
  /// with a running background thread (they would share the baseline).
  void tick(std::ostream& out);

 private:
  void loop() PCQ_EXCLUDES(stop_mu_);

  /// Delta baseline: counter totals at the previous tick.
  std::map<std::string, std::uint64_t> prev_counters_;
  std::chrono::steady_clock::time_point prev_tick_{
      std::chrono::steady_clock::now()};
  std::chrono::steady_clock::time_point started_{
      std::chrono::steady_clock::now()};

  ReporterOptions options_;
  std::ofstream out_;
  std::thread thread_;
  util::Mutex stop_mu_;
  util::CondVar stop_cv_;
  bool stop_requested_ PCQ_GUARDED_BY(stop_mu_) = false;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> ticks_{0};
};

/// Adds the process-level gauges proc.maxrss_kb, proc.user_cpu_ms and
/// proc.sys_cpu_ms from getrusage (no-op off unix) — the fill of the
/// process source a serving tool installs on the global registry.
void add_process_gauges(RegistrySnapshot& snapshot);

}  // namespace pcq::obs
