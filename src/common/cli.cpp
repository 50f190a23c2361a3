#include "common/cli.hpp"

#include <charconv>
#include <cstdlib>

namespace repro {

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::vector<std::string> bool_flags) {
  if (argc > 0) program_ = argv[0];
  const auto is_bool = [&bool_flags](const std::string& name) {
    for (const auto& f : bool_flags)
      if (f == name) return true;
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (!is_bool(arg) && i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = "";  // bare flag
    }
  }
}

std::vector<std::string> CliArgs::keys() const {
  std::vector<std::string> out;
  out.reserve(kv_.size());
  for (const auto& [k, v] : kv_) out.push_back(k);
  return out;
}

bool CliArgs::has_flag(const std::string& name) const {
  return kv_.contains(name);
}

std::optional<std::string> CliArgs::get(const std::string& name) const {
  const auto it = kv_.find(name);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& name,
                            const std::string& def) const {
  return get(name).value_or(def);
}

long long CliArgs::get_int_or(const std::string& name, long long def) const {
  const auto v = get(name);
  if (!v || v->empty()) return def;
  return std::strtoll(v->c_str(), nullptr, 10);
}

std::optional<long long> CliArgs::get_int_in(const std::string& name,
                                             long long def, long long lo,
                                             long long hi) const {
  const auto v = get(name);
  if (!v) return def;
  long long n = 0;
  const char* end = v->data() + v->size();
  const auto [ptr, ec] = std::from_chars(v->data(), end, n);
  if (ec != std::errc() || ptr != end || n < lo || n > hi) return std::nullopt;
  return n;
}

double CliArgs::get_double_or(const std::string& name, double def) const {
  const auto v = get(name);
  if (!v || v->empty()) return def;
  return std::strtod(v->c_str(), nullptr);
}

}  // namespace repro
