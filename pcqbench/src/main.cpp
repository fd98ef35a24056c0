// pcqbench entry point: one workload per process.
//
//   pcqbench --workload serve_read|ingest_mixed|build_analytics
//            --seed N --seconds S --trace 0|1
//            [--git-sha SHA] [--trace-out PATH]
//
// Prints a host block, check and regime lines, then as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 0 when every output check passed, 1 when one failed and 2 on a
// usage or run error.
#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "bits/simd_dispatch.hpp"
#include "obs/slowlog.hpp"
#include "obs/trace.hpp"

#ifndef PCQB_COMPILER
#define PCQB_COMPILER "unknown"
#endif
#ifndef PCQB_FLAGS
#define PCQB_FLAGS "unknown"
#endif

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "pcqbench: %s\nusage: pcqbench --workload "
               "serve_read|ingest_mixed|build_analytics --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA] [--trace-out PATH]\n",
               why);
  return 2;
}

int cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  pcqbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") opt.workload = value;
      else if (key == "--seed") opt.seed = std::stoull(value);
      else if (key == "--seconds") opt.seconds = std::stod(value);
      else if (key == "--trace") opt.trace = std::stoi(value) != 0;
      else if (key == "--git-sha") opt.git_sha = value;
      else if (key == "--trace-out") opt.trace_out = value;
      else return usage(("unknown option " + key).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (opt.seconds <= 0) return usage("--seconds must be positive");

  void (*run)(const pcqbench::Options&, pcqbench::Result&) = nullptr;
  if (opt.workload == "serve_read") run = pcqbench::run_serve_read;
  else if (opt.workload == "ingest_mixed") run = pcqbench::run_ingest_mixed;
  else if (opt.workload == "build_analytics") run = pcqbench::run_build_analytics;
  else return usage("unknown workload");

  // glibc raises its mmap threshold each time a large block is freed, so
  // how much freed memory stays resident depends on the allocation
  // history. Pinning it at its 128 KiB default keeps large buffers mmapped
  // and returned on free, so ru_maxrss (peak_rss_mb) is the peak of live
  // memory, the same on every run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  // The library's own span tracer stays off: every span of a traced run is
  // recorded by the benchmark around its calls. The slow-query log runs at
  // the pcq_serve production threshold.
  pcq::obs::set_trace_enabled(false);
  pcq::obs::SlowLog::global().set_threshold_us(10000);
  pcq::obs::SlowLog::global().set_capacity(256);

  std::printf("host nproc=%d isa=%s compiler=\"%s\" flags=\"%s\" git=%s\n",
              cpu_count(),
              pcq::bits::simd::isa_name(pcq::bits::simd::active_isa()),
              PCQB_COMPILER, PCQB_FLAGS, opt.git_sha.c_str());
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d threads=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, pcqbench::kThreads);
  std::fflush(stdout);

  pcqbench::Result result;
  try {
    run(opt, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcqbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 2;
  }
  result.print(opt.trace);
  return result.correct() ? 0 : 1;
}
