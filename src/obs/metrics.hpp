// pcq::obs — unified metrics: lock-free counters, gauges and log-linear
// histograms, individually embeddable (pcq::svc's per-shard blocks) or
// named through the process-wide MetricsRegistry. Objects that own
// per-instance blocks (a QueryService, a TcpServer) join the registry as
// sources for as long as they live, so every metrics surface renders one
// MetricsRegistry::snapshot().
//
// Every primitive is a relaxed std::atomic, so recording from any number
// of threads is wait-free and contention-free at the cache-line level as
// long as writers keep to their own instances (the shard pattern); even
// shared instances only contend on the fetch_add itself. Snapshots are
// racy-by-design: all counters are monotonic, so a concurrent snapshot is
// a consistent-enough point-in-time view.
#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pcq::obs {

/// Log-linear histogram of non-negative 64-bit samples (microseconds for
/// latency, request counts for batch sizes). Thread-safe for concurrent
/// record(); see file comment for the snapshot consistency model.
///
/// Quantile error bound: values < kSub land in exact width-1 buckets, so
/// their quantiles are exact. Above that, a bucket spans [lo, lo * (1 +
/// 2^-kSubBits)), and quantile() reports the bucket's geometric midpoint
/// sqrt(lo * hi) — the multiplicative-error-minimising point estimate —
/// so the relative error is at most sqrt(1 + 2^-kSubBits) - 1 ≈ 11.8%
/// for kSubBits = 2 (and the estimate never leaves the winning bucket,
/// unlike boundary interpolation, which could report the upper bound hi,
/// a value no recorded sample may have reached).
class LogHistogram {
 public:
  static constexpr int kSubBits = 2;  ///< 4 linear sub-buckets per octave
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kOctaves = 40;  ///< covers [0, 2^40) — 12 days in us
  static constexpr int kBuckets = kOctaves * kSub;

  void record(std::uint64_t value) {
    // bucket_index is always in [0, kBuckets); the cast keeps this header
    // clean under the packed-format targets' -Wsign-conversion.
    buckets_[static_cast<std::size_t>(bucket_index(value))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    // Exact min/max anchor the tails the bucketed quantiles only estimate.
    // After warmup the CAS loops almost never run: the loads are relaxed
    // and the compare fails the loop guard for any in-range sample.
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed))
      ;
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed))
      ;
  }

  struct Snapshot {
    std::vector<std::uint64_t> buckets;  ///< kBuckets counts
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// Raw extremes (min_seen is the ~0 sentinel while empty); read them
    /// through min()/max(), which normalise the empty case to 0.
    std::uint64_t min_seen = ~std::uint64_t{0};
    std::uint64_t max_seen = 0;

    /// Quantile estimate, q in [0, 1]; 0 when empty. Exact for values
    /// below kSub, geometric midpoint of the winning bucket otherwise
    /// (see the class comment for the ~12% error bound).
    [[nodiscard]] double quantile(double q) const;
    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Exact smallest/largest recorded sample; 0 when empty.
    [[nodiscard]] std::uint64_t min() const {
      return count == 0 ? 0 : min_seen;
    }
    [[nodiscard]] std::uint64_t max() const { return max_seen; }
  };

  [[nodiscard]] Snapshot snapshot() const;

  /// Merges this histogram's counts into `into` (shard aggregation).
  void accumulate(Snapshot& into) const;

  /// Bucket index for a value (exposed for tests).
  static int bucket_index(std::uint64_t value);

  /// Inclusive lower bound of bucket i (exposed for tests).
  static std::uint64_t bucket_floor(int i);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (queue depths, window sizes...).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time values of every series a registry renders, keyed by name.
/// Sources add to it: `counters[name] += v`, `gauges[name] += v` and
/// `h.accumulate(histograms[name])`, so same-named series from several
/// sources sum (counters, gauges) or merge (histograms).
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, LogHistogram::Snapshot> histograms;
};

/// Process-wide registry of named metrics. Lookup takes a mutex (cache the
/// returned reference at the call site — references are stable for the
/// registry's lifetime); recording through the returned reference is
/// lock-free. Naming convention: dotted lowercase paths, `layer.noun` or
/// `layer.noun_unit`, e.g. "csr.builds", "svc.queue_wait_us".
class MetricsRegistry {
 public:
  /// The process-wide instance used by the library's instrumentation.
  static MetricsRegistry& global();

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. The same name always yields the same object.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LogHistogram& histogram(std::string_view name);

  /// RAII registration of series that live outside the registry: while a
  /// Source exists, every snapshot() runs its `fill` to add them. `fill`
  /// runs under the registry mutex — so the destructor waits out any
  /// snapshot in progress — and must not call back into the registry.
  /// Construct it only once everything `fill` reads is ready, and destroy
  /// it before any of that goes away.
  class Source {
   public:
    Source(MetricsRegistry& registry,
           std::function<void(RegistrySnapshot&)> fill);
    ~Source();
    Source(const Source&) = delete;
    Source& operator=(const Source&) = delete;

   private:
    friend class MetricsRegistry;
    MetricsRegistry& registry_;
    std::function<void(RegistrySnapshot&)> fill_;
  };

  /// The registry's own series plus those of every live Source.
  [[nodiscard]] RegistrySnapshot snapshot() const;

  /// Snapshot as "name value" lines (histograms expand to count/mean/
  /// p50/p95/p99), names sorted.
  void write_text(std::ostream& out) const;

  /// Snapshot as a single JSON object keyed by metric name.
  void write_json(std::ostream& out) const;

  /// Zeroes counters/gauges and drops histogram contents — quiescent use
  /// (tests, tools between runs). Registered names and references survive;
  /// sources are untouched.
  void reset();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pcq::obs
