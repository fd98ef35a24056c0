// pcq_top — live terminal dashboard for a running pcq_serve, polling the
// admin endpoint's /metrics.json.
//
//   pcq_top HOST:PORT [--interval-ms N] [--count N] [--once]
//   pcq_top HOST:PORT --scrape /metrics
//
// Each tick fetches /metrics.json over a fresh TCP connection (the admin
// endpoint is one-request-per-connection) and renders, from its registry
// object, qps (interval delta of svc.completed), svc.latency_us
// percentiles, svc.queue_depth, rejects, net.open_conns, compactions and
// process rss. --once prints a single snapshot without clearing the screen
// (scripts); --count N exits after N ticks. --scrape PATH fetches any
// admin path and prints the raw body — the test/CI-friendly way to scrape
// without curl.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "util/flags.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PCQ_TOP_SUPPORTED 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#else
#define PCQ_TOP_SUPPORTED 0
#endif

namespace {

#if PCQ_TOP_SUPPORTED

/// One blocking HTTP/1.0 GET; returns true and fills `body` on a 200.
bool http_get(const std::string& host, std::uint16_t port,
              const std::string& path, std::string* body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char chunk[16 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n > 0) {
      response.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF or error: the server closes after the body
  }
  ::close(fd);
  const std::size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  const std::string_view status_line(response.data(),
                                     response.find("\r\n"));
  if (status_line.find(" 200 ") == std::string_view::npos) return false;
  body->assign(response, header_end + 4, std::string::npos);
  return true;
}

/// First number following `"key":` in `s` (searching from `from`);
/// fallback when absent. Good enough for the flat keys the admin endpoint
/// emits — no general JSON parser needed for a dashboard.
double num_after(std::string_view s, std::string_view key, double fallback,
                 std::size_t from = 0) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = s.find(needle, from);
  if (at == std::string_view::npos) return fallback;
  return std::strtod(std::string(s.substr(at + needle.size(), 32)).c_str(),
                     nullptr);
}

struct Sample {
  bool ok = false;
  double completed = 0;
  double rejected = 0;
  double expired = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  double queue_depth = 0;
  double open_conns = 0;
  double compactions = 0;
  double maxrss_kb = 0;
  double slow_captured = 0;
};

Sample fetch_sample(const std::string& host, std::uint16_t port) {
  Sample s;
  std::string body;
  if (!http_get(host, port, "/metrics.json", &body)) return s;
  s.ok = true;
  const std::string_view v(body);
  // Every series lives in the "registry" object, keyed by its full name.
  const std::size_t reg = v.find("\"registry\":");
  s.completed = num_after(v, "svc.completed", 0, reg);
  s.rejected = num_after(v, "svc.rejected", 0, reg);
  s.expired = num_after(v, "svc.expired", 0, reg);
  const std::size_t lat = v.find("\"svc.latency_us\":", reg);
  s.p50 = num_after(v, "p50", 0, lat);
  s.p95 = num_after(v, "p95", 0, lat);
  s.p99 = num_after(v, "p99", 0, lat);
  s.queue_depth = num_after(v, "svc.queue_depth", 0, reg);
  s.open_conns = num_after(v, "net.open_conns", 0, reg);
  s.compactions = num_after(v, "dyn.hybrid.compactions", 0, reg);
  s.maxrss_kb = num_after(v, "proc.maxrss_kb", 0, reg);
  s.slow_captured = num_after(v, "captured", 0, v.find("\"slowlog\":"));
  return s;
}

void render(const Sample& now, const Sample& prev, double interval_s,
            bool clear) {
  if (clear) std::printf("\x1b[2J\x1b[H");
  const double qps =
      prev.ok && interval_s > 0 ? (now.completed - prev.completed) / interval_s
                                : 0;
  const double rejects_s =
      prev.ok && interval_s > 0 ? (now.rejected - prev.rejected) / interval_s
                                : 0;
  std::printf("pcq_top — live service telemetry\n");
  std::printf("  qps        %12.0f   completed %14.0f\n", qps, now.completed);
  std::printf("  latency us p50 %8.0f   p95 %10.0f   p99 %8.0f\n", now.p50,
              now.p95, now.p99);
  std::printf("  queue depth %11.0f   rejects/s %14.0f\n", now.queue_depth,
              rejects_s);
  std::printf("  open conns  %11.0f   expired   %14.0f\n", now.open_conns,
              now.expired);
  std::printf("  compactions %11.0f   slow captured %10.0f\n",
              now.compactions, now.slow_captured);
  std::printf("  maxrss      %9.0f MB\n", now.maxrss_kb / 1024.0);
  std::fflush(stdout);
}

#endif  // PCQ_TOP_SUPPORTED

}  // namespace

int main(int argc, char** argv) {
  pcq::util::Flags flags(
      argc, argv,
      {{"interval-ms", "poll interval (default 1000)"},
       {"count", "exit after N ticks (default: run until interrupted)"},
       {"once", "print one snapshot without clearing the screen"},
       {"scrape", "fetch an admin PATH (e.g. /metrics) and print the raw "
                  "body, then exit"}});
#if !PCQ_TOP_SUPPORTED
  (void)flags;
  std::fprintf(stderr, "error: pcq_top requires a POSIX platform\n");
  return 2;
#else
  const auto& pos = flags.positional();
  if (pos.empty()) {
    std::fprintf(stderr, "usage: pcq_top HOST:PORT [--interval-ms N] "
                         "[--count N] [--once] [--scrape PATH]\n");
    return 2;
  }
  const std::string& target = pos[0];
  const auto [host, port] = pcq::util::parse_host_port_or_exit(target);

  if (flags.has("scrape")) {
    std::string body;
    if (!http_get(host, port, flags.get("scrape", "/metrics"), &body)) {
      std::fprintf(stderr, "error: scrape failed for %s\n", target.c_str());
      return 3;
    }
    std::fwrite(body.data(), 1, body.size(), stdout);
    return 0;
  }

  const auto interval =
      std::chrono::milliseconds(flags.get_int("interval-ms", 1000));
  const double interval_s =
      std::chrono::duration<double>(interval).count();
  const std::int64_t count =
      flags.has("once") ? 1 : flags.get_int("count", 0);
  Sample prev;
  for (std::int64_t tick = 0; count <= 0 || tick < count; ++tick) {
    const Sample now = fetch_sample(host, port);
    if (!now.ok) {
      std::fprintf(stderr, "error: cannot reach %s\n", target.c_str());
      return 3;
    }
    render(now, prev, interval_s, /*clear=*/!flags.has("once"));
    prev = now;
    if (count > 0 && tick + 1 >= count) break;
    std::this_thread::sleep_for(interval);
  }
  return 0;
#endif
}
