// pcq::net — admin telemetry endpoint tests: the pure request handler
// (routing, status codes, content types) plus live-socket coverage on the
// epoll server's second listener — the exposition parses per the
// Prometheus grammar and carries the service's and server's own series,
// /metrics.json and /slow are valid JSON, counters are monotonic across
// scrapes under load, and an injected kernel delay lands requests in the
// bounded slow-query log.
#include "net/admin.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "csr/builder.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/exposition.hpp"
#include "obs/slowlog.hpp"
#include "svc/service.hpp"

#ifdef __linux__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace pcq::net {
namespace {

using svc::QueryKind;
using svc::Status;

// Minimal JSON validity checker (objects/arrays/strings/numbers/keywords).
// Good enough to assert the admin documents are well-formed without a
// parser dependency.
class JsonScanner {
 public:
  explicit JsonScanner(std::string_view s) : s_(s) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return keyword("true");
      case 'f': return keyword("false");
      case 'n': return keyword("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    for (++pos_; pos_ < s_.size(); ++pos_) {
      if (s_[pos_] == '\\') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '"') {
        ++pos_;
        return true;
      }
    }
    return false;
  }
  bool number() {
    const char* begin = s_.data() + pos_;
    char* end = nullptr;
    std::strtod(begin, &end);
    if (end == begin) return false;
    pos_ += static_cast<std::size_t>(end - begin);
    return true;
  }
  bool keyword(std::string_view k) {
    if (s_.substr(pos_, k.size()) != k) return false;
    pos_ += k.size();
    return true;
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool expect(char c) { return peek(c); }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

bool json_valid(std::string_view s) { return JsonScanner(s).valid(); }

TEST(JsonScanner, SelfCheck) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("{\"a\":[1,2.5,-3e2],\"b\":{\"c\":\"x\"},"
                         "\"d\":true,\"e\":null}"));
  EXPECT_FALSE(json_valid("{\"a\":}"));
  EXPECT_FALSE(json_valid("{\"a\":1,}"));
  EXPECT_FALSE(json_valid("[1 2]"));
  EXPECT_FALSE(json_valid("{\"a\":1} trailing"));
}

#ifdef __linux__

struct AdminFixture {
  AdminFixture() {
    graph::EdgeList list = graph::rmat(1 << 9, 8'000, 0.57, 0.19, 0.19, 3, 2);
    list.sort(2);
    list.dedupe();
    csr = csr::build_bitpacked_csr_from_sorted(list, 1 << 9, 2);
  }
  csr::BitPackedCsr csr;
};

const AdminFixture& admin_fixture() {
  static const AdminFixture f;
  return f;
}

/// Frame server + admin listener on ephemeral ports, epoll loop on a
/// background thread, handler wired exactly like pcq_serve wires it.
struct LiveAdminServer {
  explicit LiveAdminServer(svc::ServiceConfig config = {})
      : service(admin_fixture().csr, nullptr, config) {
    ServerOptions options;
    options.admin_enabled = true;
    server = std::make_unique<TcpServer>(service, options);
    AdminContext ctx;
    ctx.started = std::chrono::steady_clock::now();
    server->set_admin_handler(
        [ctx](std::string_view method, std::string_view target) {
          return handle_admin_request(ctx, method, target);
        });
    thread = std::thread([this] { server->run(); });
  }
  ~LiveAdminServer() {
    server->request_stop();
    thread.join();
  }
  svc::QueryService service;
  std::unique_ptr<TcpServer> server;
  std::thread thread;
};

/// One blocking HTTP/1.0 exchange against the admin listener; returns the
/// full response (headers + body).
std::string admin_fetch(std::uint16_t port, const std::string& request_text) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  std::size_t sent = 0;
  while (sent < request_text.size()) {
    const ssize_t n = ::send(fd, request_text.data() + sent,
                             request_text.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char chunk[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string admin_get(const LiveAdminServer& s, const std::string& path) {
  return admin_fetch(s.server->admin_port(),
                     "GET " + path + " HTTP/1.0\r\nHost: t\r\n\r\n");
}

std::string body_of(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : response.substr(at + 4);
}

WireRequest wire(std::uint64_t id, QueryKind kind, std::uint32_t u,
                 std::uint32_t v = 0) {
  WireRequest w;
  w.id = id;
  w.kind = static_cast<std::uint8_t>(kind);
  w.u = u;
  w.v = v;
  return w;
}

// ------------------------------------------------------- pure handler

TEST(AdminHandler, RoutesAndStatusCodes) {
  LiveAdminServer s;  // a live service + server as registry sources
  AdminContext ctx;
  ctx.started = std::chrono::steady_clock::now();

  EXPECT_NE(handle_admin_request(ctx, "GET", "/healthz").find("200"),
            std::string::npos);
  EXPECT_NE(handle_admin_request(ctx, "GET", "/healthz").find("ok\n"),
            std::string::npos);
  EXPECT_NE(handle_admin_request(ctx, "GET", "/nope").find("404"),
            std::string::npos);
  EXPECT_NE(handle_admin_request(ctx, "POST", "/healthz").find("405"),
            std::string::npos);
  // Query strings are stripped before routing.
  EXPECT_NE(handle_admin_request(ctx, "GET", "/healthz?x=1").find("200"),
            std::string::npos);

  const std::string buildinfo = handle_admin_request(ctx, "GET", "/buildinfo");
  EXPECT_TRUE(json_valid(body_of(buildinfo))) << buildinfo;
}

// --------------------------------------------------------- live scrapes

TEST(AdminEndpoint, ListensOnItsOwnEphemeralPort) {
  LiveAdminServer s;
  EXPECT_NE(s.server->admin_port(), 0);
  EXPECT_NE(s.server->admin_port(), s.server->port());
  const std::string response = admin_get(s, "/healthz");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_EQ(body_of(response), "ok\n");
}

TEST(AdminEndpoint, MetricsExpositionParsesPerGrammar) {
  LiveAdminServer s;
  {
    Client client;
    client.connect("127.0.0.1", s.server->port());
    for (std::uint64_t i = 0; i < 50; ++i)
      client.send_request(wire(i, QueryKind::kDegree,
                               static_cast<std::uint32_t>(i % 64)));
    for (std::uint64_t i = 0; i < 50; ++i) {
      WireResponse r;
      ASSERT_TRUE(client.read_response(&r));
    }
  }
  const std::string response = admin_get(s, "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::string body = body_of(response);
  ASSERT_FALSE(body.empty());
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) name.resize(brace);
    EXPECT_TRUE(obs::is_valid_metric_name(name)) << line;
  }
  // The service's and the server's own series reach /metrics, typed.
  EXPECT_NE(body.find("# TYPE svc_latency_us summary\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE svc_completed counter\nsvc_completed 50\n"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE net_frames_in counter\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE net_open_conns gauge\n"), std::string::npos);
}

TEST(AdminEndpoint, MetricsJsonAndSlowAreValidJson) {
  LiveAdminServer s;
  const std::string metrics = body_of(admin_get(s, "/metrics.json"));
  EXPECT_TRUE(json_valid(metrics)) << metrics.substr(0, 400);
  EXPECT_NE(metrics.find("\"slowlog\":"), std::string::npos);
  const std::size_t registry = metrics.find("\"registry\":{");
  ASSERT_NE(registry, std::string::npos);
  EXPECT_NE(metrics.find("\"svc.completed\":", registry), std::string::npos);
  EXPECT_NE(metrics.find("\"net.frames_in\":", registry), std::string::npos);
  const std::string slow = body_of(admin_get(s, "/slow"));
  EXPECT_TRUE(json_valid(slow)) << slow.substr(0, 400);
}

TEST(AdminEndpoint, CountersAreMonotonicAcrossScrapesUnderLoad) {
  LiveAdminServer s;
  Client client;
  client.connect("127.0.0.1", s.server->port());
  auto drive = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i)
      client.send_request(wire(i, QueryKind::kDegree,
                               static_cast<std::uint32_t>(i % 32)));
    for (std::uint64_t i = 0; i < n; ++i) {
      WireResponse r;
      ASSERT_TRUE(client.read_response(&r));
    }
  };
  auto completed_of = [](const std::string& json) {
    const std::string key = "\"svc.completed\":";
    const std::size_t at = json.find(key, json.find("\"registry\":"));
    EXPECT_NE(at, std::string::npos);
    return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
  };
  drive(100);
  const std::string first = body_of(admin_get(s, "/metrics.json"));
  drive(100);
  const std::string second = body_of(admin_get(s, "/metrics.json"));
  const std::uint64_t c1 = completed_of(first);
  const std::uint64_t c2 = completed_of(second);
  EXPECT_GE(c1, 100u);
  EXPECT_GE(c2, c1 + 100);
  // The admin listener's own request counter advances too.
  EXPECT_GE(s.server->stats().admin_requests.load(), 2u);
}

TEST(AdminEndpoint, InjectedDelayLandsRequestsInTheSlowLog) {
  obs::SlowLog& log = obs::SlowLog::global();
  log.clear();
  log.set_capacity(4);
  log.set_threshold_us(500);
  {
    svc::ServiceConfig config;
    config.debug_kernel_delay = std::chrono::microseconds(2'000);
    LiveAdminServer s(config);
    Client client;
    client.connect("127.0.0.1", s.server->port());
    constexpr std::uint64_t kRequests = 10;
    for (std::uint64_t i = 1; i <= kRequests; ++i)
      client.send_request(wire(i, QueryKind::kDegree,
                               static_cast<std::uint32_t>(i % 16)));
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      WireResponse r;
      ASSERT_TRUE(client.read_response(&r));
    }
    // Every request slept >= 2 ms in the kernel phase, all captured, the
    // bound respected and the retained records carrying wire trace ids.
    EXPECT_EQ(log.captured(), kRequests);
    const std::vector<obs::SlowQuery> snap = log.snapshot();
    ASSERT_EQ(snap.size(), 4u);  // capacity bound, drop-oldest
    for (const obs::SlowQuery& q : snap) {
      EXPECT_GE(q.total_us, 2'000u);
      EXPECT_GE(q.service_us, 2'000u);
      EXPECT_GT(q.trace_id, 0u);
      EXPECT_LE(q.trace_id, kRequests);
    }
    const std::string slow = body_of(admin_get(s, "/slow"));
    EXPECT_TRUE(json_valid(slow));
    EXPECT_NE(slow.find("\"captured\":10"), std::string::npos);
    EXPECT_NE(slow.find("\"trace_id\":"), std::string::npos);
  }
  log.clear();
  log.set_threshold_us(0);
  log.set_capacity(obs::SlowLog::kDefaultCapacity);
}

TEST(AdminEndpoint, MalformedRequestLineIs400) {
  LiveAdminServer s;
  const std::string response =
      admin_fetch(s.server->admin_port(), "BOGUS\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 400"), std::string::npos);
}

#endif  // __linux__

}  // namespace
}  // namespace pcq::net
