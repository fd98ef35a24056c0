// pcq::net — admin (scrape) endpoint request handling.
//
// The TcpServer can open a SECOND listener whose connections speak a
// minimal HTTP/1.0 subset instead of the binary frame protocol, so CI,
// load generators, Prometheus and dashboards can observe a running server
// without linking the wire codec. One request per connection (the
// response always says `Connection: close`), GET only. Routes:
//
//   /metrics       Prometheus text exposition of the global registry
//   /metrics.json  {"uptime_s", "slowlog" summary, "registry"}: the same
//                  registry snapshot as JSON
//   /slow          the bounded slow-query log (obs::SlowLog) as JSON
//   /trace         Chrome trace-event JSON of everything recorded
//   /healthz       "ok" — liveness for scripts and orchestrators
//   /buildinfo     compiler / build-mode / trace-compiled-in JSON
//
// Both metrics routes render one MetricsRegistry::snapshot(), which holds
// every live QueryService's svc.* and TcpServer's net.* series beside the
// registry's own, so nothing needs refreshing before a scrape. The handler
// is pure request -> response-bytes: TcpServer does the socket work; tests
// call handle_admin_request directly.
#pragma once

#include <chrono>
#include <string>
#include <string_view>

namespace pcq::net {

/// What the admin routes report beyond the registry.
struct AdminContext {
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
};

/// Builds the COMPLETE HTTP response (status line, headers, body) for one
/// admin request. Never throws; unknown paths get 404, non-GET 405.
[[nodiscard]] std::string handle_admin_request(const AdminContext& context,
                                               std::string_view method,
                                               std::string_view target);

}  // namespace pcq::net
