// pcqbench — the repository benchmark. Shared vocabulary of the workload
// runs: options, the result a run prints, summary statistics and the
// in-memory span log of traced runs.
//
// The benchmark measures pcq from outside: it times calls into each
// module's public functions and reads the counters the modules already
// publish. It adds no instrumentation to the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pcqbench {

using Clock = std::chrono::steady_clock;

/// Threads of every build and analytics call, in every workload.
inline constexpr int kThreads = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< length of the measured window
  bool trace = false;   ///< per-layer run instead of the end-to-end run
  std::string git_sha = "unknown";
  std::string trace_out;  ///< Chrome trace of the traced run ("" = none)
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Progress line on stderr: the phase just finished and the seconds since
/// the process started.
void progress(const char* phase);

/// The metric names each kind of run prints, with their units. The
/// end-to-end list is what `--trace 0` prints and the per-layer list what
/// `--trace 1` prints; BENCHMARK.json names the same metrics.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// What one workload run reports. Metrics are stored by name; layers a
/// workload bypasses keep the 0 they start with.
class Result {
 public:
  Result();

  void set(const std::string& name, double value);
  /// A failed check marks the run incorrect and is printed as such.
  void check(bool ok, const std::string& what);
  /// A free-form report line printed before the result line.
  void note(const std::string& line) { notes_.push_back(line); }
  /// A printf-formatted report line.
  void notef(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// A "reps <name>=[v1 v2 ...]" line: every repetition behind a median.
  void note_reps(const std::string& name, const std::vector<double>& values);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const { return correct_; }

  /// Report lines, then the one-line JSON result with the metric list of
  /// the run kind.
  void print(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  bool correct_ = true;
};

// --- statistics ------------------------------------------------------------

double median(std::vector<double> values);
/// Median of the repetitions after the first `warmup` ones. Early
/// repetitions pay first-touch page faults the later ones do not, so they
/// are printed but left out.
double warm_median(const std::vector<double>& values, std::size_t warmup);
double mean(const std::vector<double>& values);
/// Nearest-rank percentile, q in [0, 1]; sorts `values` in place.
double percentile(std::vector<float>& values, double q);
/// ru_maxrss of this process, in MB.
double peak_rss_mb();
/// Makes a value observable so the loop that computed it is not elided.
void keep_alive(std::uint64_t value);

// --- spans -----------------------------------------------------------------

/// Spans the benchmark records around its calls into the library during a
/// traced run. Totals per name are exact; the first `capacity` spans are
/// kept for the Chrome trace written at exit. Single-threaded: only the
/// benchmark's driving thread records.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 1u << 16);

  void record(const char* name, Clock::time_point begin, Clock::time_point end,
              std::uint64_t id);

  [[nodiscard]] double total_us(const char* name) const;

  /// Chrome trace-event JSON ("ph":"X" events), loadable in Perfetto.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t begin_ns;
    std::int64_t end_ns;
    std::uint64_t id;
  };
  struct Total {
    const char* name;
    double us = 0;
    std::uint64_t count = 0;
  };
  Total& total_for(const char* name);

  std::size_t capacity_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<Total> totals_;
};

// --- workloads -------------------------------------------------------------

void run_serve_read(const Options& opt, Result& out);
void run_ingest_mixed(const Options& opt, Result& out);
void run_build_analytics(const Options& opt, Result& out);

}  // namespace pcqbench
