// pcq::obs — Prometheus-style text exposition of the MetricsRegistry.
//
// The registry's naming convention is dotted lowercase paths
// ("svc.flush.size"); the Prometheus exposition grammar only admits
// [a-zA-Z_:][a-zA-Z0-9_:]* for metric names, so every name is sanitised on
// the way out (dots and other invalid characters become underscores, a
// leading digit gains an underscore prefix). Sanitisation is deterministic
// and total — any registry name maps to exactly one valid exposition name —
// and a unit test lints every name the library ever registers against the
// grammar (tests/test_obs_exposition.cpp).
//
// Exposition mapping:
//   Counter    -> `# TYPE name counter`  + one sample line
//   Gauge      -> `# TYPE name gauge`    + one sample line
//   Histogram  -> `# TYPE name summary`  + quantile{0.5,0.95,0.99} samples,
//                 name_sum / name_count, plus name_min / name_max gauges
//                 (exact tail anchors the bucketed quantiles lack).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

namespace pcq::obs {

class MetricsRegistry;

/// True when `name` matches the Prometheus metric-name grammar
/// [a-zA-Z_:][a-zA-Z0-9_:]*.
[[nodiscard]] bool is_valid_metric_name(std::string_view name);

/// Maps an arbitrary registry name onto the exposition grammar: dots and
/// every other invalid character become '_', and a name whose first
/// character is a digit (or that is empty) gains a leading '_'. Idempotent;
/// the result always satisfies is_valid_metric_name.
[[nodiscard]] std::string sanitize_metric_name(std::string_view name);

/// Writes registry.snapshot() — the registry's own series and those of
/// every live source — in the Prometheus text exposition format (version
/// 0.0.4): `# TYPE` comment then sample lines per metric, names sanitised
/// as above. Safe concurrently with recording (same racy-but-monotonic
/// snapshot model as write_text/write_json).
void write_prometheus(const MetricsRegistry& registry, std::ostream& out);

}  // namespace pcq::obs
