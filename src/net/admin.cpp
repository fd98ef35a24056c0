#include "net/admin.hpp"

#include <cstdio>
#include <sstream>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/slowlog.hpp"
#include "obs/trace.hpp"

namespace pcq::net {

namespace {

std::string build_response(int status, const char* reason,
                           const char* content_type, const std::string& body) {
  // HTTP/1.0 + Connection: close keeps the connection lifecycle trivial:
  // the server half-closes after the body and the drain machinery it
  // already has finishes the job. Content-Length still set so HTTP/1.1
  // clients (curl, Prometheus) are happy too.
  std::string out;
  out.reserve(body.size() + 128);
  char head[160];
  std::snprintf(head, sizeof head,
                "HTTP/1.0 %d %s\r\nContent-Type: %s\r\n"
                "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                status, reason, content_type, body.size());
  out += head;
  out += body;
  return out;
}

std::string not_found() {
  return build_response(404, "Not Found", "text/plain; charset=utf-8",
                        "not found\n");
}

std::string metrics_json(const AdminContext& ctx) {
  const obs::SlowLog& slow = obs::SlowLog::global();
  std::ostringstream body;
  body << "{\"uptime_s\":"
       << std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        ctx.started)
              .count()
       << ",\"slowlog\":{\"threshold_us\":" << slow.threshold_us()
       << ",\"captured\":" << slow.captured()
       << ",\"capacity\":" << slow.capacity() << "},\"registry\":";
  obs::MetricsRegistry::global().write_json(body);
  body << "}";
  return body.str();
}

std::string buildinfo_json() {
  std::string body = "{\"project\":\"pcq\",\"component\":\"pcq_serve\"";
  body += ",\"trace_compiled_in\":";
  body += obs::kTraceCompiledIn ? "true" : "false";
#ifdef NDEBUG
  body += ",\"build\":\"release\"";
#else
  body += ",\"build\":\"debug\"";
#endif
#ifdef __VERSION__
  body += ",\"compiler\":\"";
  body += __VERSION__;
  body += "\"";
#endif
  body += "}";
  return body;
}

}  // namespace

std::string handle_admin_request(const AdminContext& context,
                                 std::string_view method,
                                 std::string_view target) {
  if (method != "GET")
    return build_response(405, "Method Not Allowed",
                          "text/plain; charset=utf-8", "GET only\n");
  // Ignore a query string: "/metrics?x=1" scrapes /metrics.
  const std::size_t q = target.find('?');
  const std::string_view path =
      q == std::string_view::npos ? target : target.substr(0, q);

  if (path == "/healthz")
    return build_response(200, "OK", "text/plain; charset=utf-8", "ok\n");

  if (path == "/buildinfo")
    return build_response(200, "OK", "application/json", buildinfo_json());

  if (path == "/metrics") {
    std::ostringstream body;
    obs::write_prometheus(obs::MetricsRegistry::global(), body);
    return build_response(200, "OK",
                          "text/plain; version=0.0.4; charset=utf-8",
                          body.str());
  }

  if (path == "/metrics.json")
    return build_response(200, "OK", "application/json",
                          metrics_json(context));

  if (path == "/slow") {
    std::ostringstream body;
    obs::SlowLog::global().write_json(body);
    return build_response(200, "OK", "application/json", body.str());
  }

  if (path == "/trace") {
    std::ostringstream body;
    obs::write_chrome_trace(body);
    return build_response(200, "OK", "application/json", body.str());
  }

  return not_found();
}

}  // namespace pcq::net
