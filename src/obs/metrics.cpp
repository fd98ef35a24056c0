#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <new>
#include <ostream>
#include <type_traits>
#include <utility>

#include "util/thread_annotations.hpp"

namespace pcq::obs {

int LogHistogram::bucket_index(std::uint64_t value) {
  // Values below kSub map to themselves (exact small-value buckets);
  // larger values land in octave `bit_width - kSubBits` with the top
  // kSubBits bits after the leading one selecting the linear sub-bucket.
  if (value < kSub) return static_cast<int>(value);
  const int msb = static_cast<int>(std::bit_width(value)) - 1;  // >= kSubBits
  const int sub =
      static_cast<int>((value >> (msb - kSubBits)) & (kSub - 1));
  const int idx = (msb - kSubBits + 1) * kSub + sub;
  return idx >= kBuckets ? kBuckets - 1 : idx;
}

std::uint64_t LogHistogram::bucket_floor(int i) {
  if (i < kSub) return static_cast<std::uint64_t>(i);
  const int octave = i / kSub - 1 + kSubBits;
  const int sub = i % kSub;
  return (std::uint64_t{1} << octave) |
         (static_cast<std::uint64_t>(sub) << (octave - kSubBits));
}

LogHistogram::Snapshot LogHistogram::snapshot() const {
  Snapshot s;
  s.buckets.resize(kBuckets);
  accumulate(s);
  return s;
}

void LogHistogram::accumulate(Snapshot& into) const {
  if (into.buckets.size() != static_cast<std::size_t>(kBuckets))
    into.buckets.resize(kBuckets);
  for (int i = 0; i < kBuckets; ++i)
    into.buckets[static_cast<std::size_t>(i)] +=
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  into.count += count_.load(std::memory_order_relaxed);
  into.sum += sum_.load(std::memory_order_relaxed);
  into.min_seen =
      std::min(into.min_seen, min_.load(std::memory_order_relaxed));
  into.max_seen =
      std::max(into.max_seen, max_.load(std::memory_order_relaxed));
}

double LogHistogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t b = buckets[static_cast<std::size_t>(i)];
    if (b == 0) continue;
    if (static_cast<double>(seen + b) >= target) {
      const std::uint64_t lo = bucket_floor(i);
      // Width-1 buckets (every value below kSub) are exact. Otherwise
      // report the geometric midpoint of [lo, hi) — never a boundary, so
      // the estimate stays a value the bucket could actually contain; see
      // the error bound in the class comment.
      const std::uint64_t hi =
          i + 1 < kBuckets ? bucket_floor(i + 1) : lo + 1;
      if (hi - lo <= 1) return static_cast<double>(lo);
      return std::sqrt(static_cast<double>(lo) * static_cast<double>(hi));
    }
    seen += b;
  }
  return static_cast<double>(bucket_floor(kBuckets - 1));
}

// --- MetricsRegistry --------------------------------------------------------

struct MetricsRegistry::Impl {
  mutable util::Mutex mu;
  // Node-based maps: references handed out stay valid as entries are added.
  std::map<std::string, Counter> counters PCQ_GUARDED_BY(mu);
  std::map<std::string, Gauge> gauges PCQ_GUARDED_BY(mu);
  std::map<std::string, LogHistogram> histograms PCQ_GUARDED_BY(mu);
  std::vector<const Source*> sources PCQ_GUARDED_BY(mu);
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* r = new MetricsRegistry();  // never destroyed:
  return *r;  // instrumented worker threads may outlive main()'s statics
}

Counter& MetricsRegistry::counter(std::string_view name) {
  util::MutexLock lock(impl_->mu);
  return impl_->counters[std::string(name)];
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  util::MutexLock lock(impl_->mu);
  return impl_->gauges[std::string(name)];
}

LogHistogram& MetricsRegistry::histogram(std::string_view name) {
  util::MutexLock lock(impl_->mu);
  return impl_->histograms[std::string(name)];
}

MetricsRegistry::Source::Source(MetricsRegistry& registry,
                                std::function<void(RegistrySnapshot&)> fill)
    : registry_(registry), fill_(std::move(fill)) {
  util::MutexLock lock(registry_.impl_->mu);
  registry_.impl_->sources.push_back(this);
}

MetricsRegistry::Source::~Source() {
  util::MutexLock lock(registry_.impl_->mu);
  auto& sources = registry_.impl_->sources;
  sources.erase(std::find(sources.begin(), sources.end(), this));
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  RegistrySnapshot out;
  util::MutexLock lock(impl_->mu);
  for (const auto& [name, c] : impl_->counters) out.counters[name] = c.value();
  for (const auto& [name, g] : impl_->gauges) out.gauges[name] = g.value();
  for (const auto& [name, h] : impl_->histograms)
    h.accumulate(out.histograms[name]);
  for (const Source* source : impl_->sources) source->fill_(out);
  return out;
}

void MetricsRegistry::write_text(std::ostream& out) const {
  const RegistrySnapshot snap = snapshot();
  for (const auto& [name, value] : snap.counters)
    out << name << " " << value << "\n";
  for (const auto& [name, value] : snap.gauges)
    out << name << " " << value << "\n";
  for (const auto& [name, s] : snap.histograms) {
    out << name << " count " << s.count << " mean " << s.mean() << " p50 "
        << s.quantile(0.50) << " p95 " << s.quantile(0.95) << " p99 "
        << s.quantile(0.99) << " min " << s.min() << " max " << s.max()
        << "\n";
  }
}

void MetricsRegistry::write_json(std::ostream& out) const {
  const RegistrySnapshot snap = snapshot();
  out << "{";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
  };
  for (const auto& [name, value] : snap.counters) {
    sep();
    out << "\"" << name << "\":" << value;
  }
  for (const auto& [name, value] : snap.gauges) {
    sep();
    out << "\"" << name << "\":" << value;
  }
  for (const auto& [name, s] : snap.histograms) {
    sep();
    out << "\"" << name << "\":{\"count\":" << s.count
        << ",\"mean\":" << s.mean() << ",\"p50\":" << s.quantile(0.50)
        << ",\"p95\":" << s.quantile(0.95) << ",\"p99\":" << s.quantile(0.99)
        << ",\"min\":" << s.min() << ",\"max\":" << s.max() << "}";
  }
  out << "}";
}

void MetricsRegistry::reset() {
  util::MutexLock lock(impl_->mu);
  // Atomics are not assignable; rebuild each metric in place (references
  // handed out keep pointing at the same, now-zeroed, object).
  const auto rebuild = [](auto& metric) {
    using T = std::remove_reference_t<decltype(metric)>;
    metric.~T();
    new (&metric) T();
  };
  for (auto& [name, c] : impl_->counters) rebuild(c);
  for (auto& [name, g] : impl_->gauges) rebuild(g);
  for (auto& [name, h] : impl_->histograms) rebuild(h);
}

}  // namespace pcq::obs
