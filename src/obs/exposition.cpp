#include "obs/exposition.hpp"

#include <cstdio>
#include <ostream>

#include "obs/metrics.hpp"

namespace pcq::obs {

namespace {

bool valid_first(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool valid_rest(char c) { return valid_first(c) || (c >= '0' && c <= '9'); }

/// %g prints doubles compactly without locale surprises; histograms carry
/// quantile estimates that are doubles by construction.
void write_double(std::ostream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out << buf;
}

}  // namespace

bool is_valid_metric_name(std::string_view name) {
  if (name.empty() || !valid_first(name[0])) return false;
  for (std::size_t i = 1; i < name.size(); ++i)
    if (!valid_rest(name[i])) return false;
  return true;
}

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) out.push_back(valid_rest(c) ? c : '_');
  if (out.empty() || !valid_first(out[0])) out.insert(out.begin(), '_');
  return out;
}

void write_prometheus(const MetricsRegistry& registry, std::ostream& out) {
  const RegistrySnapshot snap = registry.snapshot();
  for (const auto& [name, value] : snap.counters) {
    const std::string n = sanitize_metric_name(name);
    out << "# TYPE " << n << " counter\n" << n << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string n = sanitize_metric_name(name);
    out << "# TYPE " << n << " gauge\n" << n << " " << value << "\n";
  }
  for (const auto& [name, s] : snap.histograms) {
    const std::string n = sanitize_metric_name(name);
    out << "# TYPE " << n << " summary\n";
    for (const double q : {0.5, 0.95, 0.99}) {
      out << n << "{quantile=\"";
      write_double(out, q);
      out << "\"} ";
      write_double(out, s.quantile(q));
      out << "\n";
    }
    out << n << "_sum " << s.sum << "\n";
    out << n << "_count " << s.count << "\n";
    // Exact extremes as companion gauges — the summary type has no
    // min/max slots but the tails are the point of tracking them.
    out << "# TYPE " << n << "_min gauge\n" << n << "_min " << s.min() << "\n";
    out << "# TYPE " << n << "_max gauge\n" << n << "_max " << s.max() << "\n";
  }
}

}  // namespace pcq::obs
