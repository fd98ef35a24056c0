// Minimal command-line flag parsing for the benchmark harnesses and
// examples. Supports `--name value` and `--name=value`; unknown flags abort
// with a usage message so experiment scripts fail loudly rather than
// silently running the wrong configuration.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pcq::util {

class Flags {
 public:
  /// Parses argv. `spec` maps flag name -> help string; flags not in the
  /// spec are rejected.
  Flags(int argc, char** argv, std::map<std::string, std::string> spec);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated integer list, e.g. "--threads 1,4,8,16,64".
  [[nodiscard]] std::vector<int> get_int_list(
      const std::string& name, const std::vector<int>& fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  void usage_and_exit(const std::string& err) const;

  std::string program_;
  std::map<std::string, std::string> spec_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// A network target given on the command line as HOST:PORT.
struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Splits `target` at its last ':' into a non-empty host and a decimal port
/// in 1-65535. Anything else is a usage error: prints it, naming `target`,
/// and exits 2 like an unknown flag.
HostPort parse_host_port_or_exit(const std::string& target);

}  // namespace pcq::util
