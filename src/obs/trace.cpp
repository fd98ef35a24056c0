#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/thread_annotations.hpp"

namespace pcq::obs {

namespace detail {

namespace {

bool env_enables_trace() {
  const char* e = std::getenv("PCQ_TRACE");
  if (e == nullptr) return false;
  return std::strcmp(e, "1") == 0 || std::strcmp(e, "on") == 0 ||
         std::strcmp(e, "ON") == 0 || std::strcmp(e, "true") == 0;
}

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

/// All rings ever registered. Rings are never destroyed before process
/// exit — a thread may die but its recorded spans stay collectable.
struct RingRegistry {
  static constexpr std::size_t kMaxRings = 256;

  util::Mutex mu;
  std::vector<std::unique_ptr<TraceRing>> rings PCQ_GUARDED_BY(mu);
  /// Spans from threads that arrived after kMaxRings rings existed.
  std::atomic<std::uint64_t> unregistered_dropped{0};

  static RingRegistry& instance() {
    static RingRegistry* r = new RingRegistry();  // never destroyed: worker
    return *r;  // threads may outlive main()'s statics
  }
};

}  // namespace

std::atomic<bool> g_trace_enabled{env_enables_trace()};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

TraceRing::TraceRing(std::uint32_t tid)
    : slots_(new Slot[kCapacity]), tid_(tid) {}

// pcq:lock-free — per-request hot path; a mutex here would serialize every
// instrumented scope across all shard workers.
void TraceRing::record(const char* name, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t arg) {
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  Slot& slot = slots_[h & (kCapacity - 1)];
  // Seqlock write: odd seq marks the slot unreadable while the fields
  // change. Each field store is a release, so a reader whose acquire load
  // sees a new field value also sees the odd mark; the release store of
  // the even mark orders the field stores before it. No fences: TSan does
  // not model them, and on x86-64 these are plain moves either way.
  const std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);
  slot.name.store(name, std::memory_order_release);
  slot.start_ns.store(start_ns, std::memory_order_release);
  slot.end_ns.store(end_ns, std::memory_order_release);
  slot.arg.store(arg, std::memory_order_release);
  slot.seq.store(seq + 2, std::memory_order_release);
  head_.store(h + 1, std::memory_order_release);
}

// pcq:seqlock-reader — the lint checks this function re-reads the sequence
// word after the field loads and carries at least one acquire.
void TraceRing::drain(std::vector<CollectedSpan>& out) const {
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  const std::uint64_t n = h < kCapacity ? h : kCapacity;
  for (std::uint64_t i = h - n; i < h; ++i) {
    const Slot& slot = slots_[i & (kCapacity - 1)];
    const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 & 1) continue;  // mid-write, will be accounted as overwritten
    // Acquire field loads: one that sees a newer write's value makes that
    // write's odd mark visible to the re-check below, which then fails.
    CollectedSpan span;
    span.name = slot.name.load(std::memory_order_acquire);
    span.start_ns = slot.start_ns.load(std::memory_order_acquire);
    span.end_ns = slot.end_ns.load(std::memory_order_acquire);
    span.arg = slot.arg.load(std::memory_order_acquire);
    span.tid = tid_;
    const std::uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
    if (s1 != s2 || span.name == nullptr) continue;  // torn, skip
    out.push_back(span);
  }
}

void TraceRing::reset() {
  head_.store(0, std::memory_order_release);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    slots_[i].seq.store(0, std::memory_order_relaxed);
    slots_[i].name.store(nullptr, std::memory_order_relaxed);
  }
}

TraceRing* ring_for_this_thread() {
  thread_local TraceRing* cached = nullptr;
  thread_local bool rejected = false;
  if (cached != nullptr) return cached;
  if (rejected) {
    RingRegistry::instance().unregistered_dropped.fetch_add(
        1, std::memory_order_relaxed);
    return nullptr;
  }
  RingRegistry& reg = RingRegistry::instance();
  util::MutexLock lock(reg.mu);
  if (reg.rings.size() >= RingRegistry::kMaxRings) {
    rejected = true;
    reg.unregistered_dropped.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  reg.rings.push_back(
      std::make_unique<TraceRing>(static_cast<std::uint32_t>(reg.rings.size())));
  cached = reg.rings.back().get();
  return cached;
}

}  // namespace detail

void set_trace_enabled(bool enabled) {
  detail::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t trace_now_ns() { return detail::now_ns(); }

std::uint64_t trace_time_ns(std::chrono::steady_clock::time_point tp) {
  const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(
      tp - detail::trace_epoch());
  return d.count() < 0 ? 0 : static_cast<std::uint64_t>(d.count());
}

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t arg) {
  if (!trace_enabled()) return;
  if (detail::TraceRing* ring = detail::ring_for_this_thread())
    ring->record(name, start_ns, end_ns, arg);
}

std::vector<CollectedSpan> collect_trace() {
  auto& reg = detail::RingRegistry::instance();
  std::vector<CollectedSpan> spans;
  {
    util::MutexLock lock(reg.mu);
    for (const auto& ring : reg.rings) ring->drain(spans);
  }
  // Per-thread lanes in start order; ties broken longer-span-first so an
  // enclosing scope precedes the scopes it contains.
  std::sort(spans.begin(), spans.end(),
            [](const CollectedSpan& a, const CollectedSpan& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;
            });
  return spans;
}

TraceStats trace_stats() {
  auto& reg = detail::RingRegistry::instance();
  TraceStats stats;
  util::MutexLock lock(reg.mu);
  stats.threads = reg.rings.size();
  for (const auto& ring : reg.rings) {
    stats.written += ring->written();
    stats.dropped += ring->wrap_dropped();
  }
  const std::uint64_t unreg =
      reg.unregistered_dropped.load(std::memory_order_relaxed);
  stats.written += unreg;
  stats.dropped += unreg;
  return stats;
}

void reset_trace() {
  auto& reg = detail::RingRegistry::instance();
  util::MutexLock lock(reg.mu);
  for (const auto& ring : reg.rings) ring->reset();
  reg.unregistered_dropped.store(0, std::memory_order_relaxed);
}

namespace {

void write_json_escaped(std::ostream& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\')
      out << '\\' << c;
    else if (static_cast<unsigned char>(c) < 0x20)
      out << ' ';
    else
      out << c;
  }
}

}  // namespace

void write_chrome_trace(std::ostream& out) {
  const std::vector<CollectedSpan> spans = collect_trace();
  out << "{\"traceEvents\":[";
  out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
         "\"args\":{\"name\":\"pcq\"}}";
  char buf[160];
  for (const CollectedSpan& s : spans) {
    // Chrome trace timestamps/durations are microseconds; fractional
    // values keep the nanosecond resolution.
    std::snprintf(buf, sizeof buf,
                  ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"",
                  s.tid, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << buf;
    write_json_escaped(out, s.name);
    std::snprintf(buf, sizeof buf, "\",\"args\":{\"arg\":%llu}}",
                  static_cast<unsigned long long>(s.arg));
    out << buf;
  }
  out << "\n]}\n";
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  write_chrome_trace(out);
  return static_cast<bool>(out);
}

void write_phase_table(std::ostream& out) {
  const std::vector<CollectedSpan> spans = collect_trace();
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  std::map<std::string, Agg> by_name;
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (const CollectedSpan& s : spans) {
    Agg& a = by_name[s.name];
    a.count += 1;
    a.total_ns += s.end_ns - s.start_ns;
    lo = std::min(lo, s.start_ns);
    hi = std::max(hi, s.end_ns);
  }
  if (by_name.empty()) {
    out << "(no spans recorded — is tracing enabled?)\n";
    return;
  }
  // Sort rows by total descending for the at-a-glance hot-phase view.
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns > b.second.total_ns;
  });
  const double wall_ns = static_cast<double>(hi - lo);
  char buf[192];
  std::snprintf(buf, sizeof buf, "%-28s %8s %12s %12s %7s\n", "phase",
                "count", "total_ms", "mean_us", "wall%");
  out << buf;
  for (const auto& [name, a] : rows) {
    std::snprintf(buf, sizeof buf, "%-28s %8llu %12.3f %12.3f %6.1f%%\n",
                  name.c_str(), static_cast<unsigned long long>(a.count),
                  static_cast<double>(a.total_ns) / 1e6,
                  static_cast<double>(a.total_ns) / 1e3 /
                      static_cast<double>(a.count),
                  wall_ns > 0
                      ? 100.0 * static_cast<double>(a.total_ns) / wall_ns
                      : 0.0);
    out << buf;
  }
  const TraceStats stats = trace_stats();
  std::snprintf(buf, sizeof buf,
                "%llu spans on %llu threads (%llu dropped), traced wall "
                "%.3f ms\n",
                static_cast<unsigned long long>(stats.written),
                static_cast<unsigned long long>(stats.threads),
                static_cast<unsigned long long>(stats.dropped),
                wall_ns / 1e6);
  out << buf;
}

}  // namespace pcq::obs
