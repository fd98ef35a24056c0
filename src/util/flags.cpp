#include "util/flags.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace pcq::util {

Flags::Flags(int argc, char** argv, std::map<std::string, std::string> spec)
    : program_(argc > 0 ? argv[0] : "?"), spec_(std::move(spec)) {
  spec_.emplace("help", "print this message");
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      value = "true";  // bare boolean flag
    }
    if (!spec_.count(name)) usage_and_exit("unknown flag --" + name);
    values_[name] = std::move(value);
  }
  if (values_.count("help")) usage_and_exit("");
}

void Flags::usage_and_exit(const std::string& err) const {
  if (!err.empty()) std::fprintf(stderr, "error: %s\n", err.c_str());
  std::fprintf(stderr, "usage: %s [flags]\n", program_.c_str());
  for (const auto& [name, help] : spec_)
    std::fprintf(stderr, "  --%-18s %s\n", name.c_str(), help.c_str());
  std::exit(err.empty() ? 0 : 2);
}

bool Flags::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<int> Flags::get_int_list(const std::string& name,
                                     const std::vector<int>& fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<int> out;
  const std::string& s = it->second;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::atoi(s.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  return out;
}

HostPort parse_host_port_or_exit(const std::string& target) {
  const std::size_t colon = target.rfind(':');
  if (colon != std::string::npos && colon > 0) {
    const char* last = target.data() + target.size();
    unsigned port = 0;
    const auto [end, ec] =
        std::from_chars(target.data() + colon + 1, last, port);
    if (ec == std::errc{} && end == last && port >= 1 && port <= 65535)
      return {target.substr(0, colon), static_cast<std::uint16_t>(port)};
  }
  std::fprintf(stderr,
               "error: expected HOST:PORT with PORT in 1-65535, got '%s'\n",
               target.c_str());
  std::exit(2);
}

}  // namespace pcq::util
