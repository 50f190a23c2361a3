#include "common/env.hpp"

#include <cstdlib>
#include <map>
#include <mutex>

namespace repro {

std::optional<std::string> env_once(const std::string& name) {
  static std::mutex mu;
  static std::map<std::string, std::optional<std::string>> captured;
  std::lock_guard<std::mutex> lk(mu);
  auto it = captured.find(name);
  if (it == captured.end()) {
    const char* v = std::getenv(name.c_str());
    it = captured
             .emplace(name, v == nullptr
                                ? std::nullopt
                                : std::optional<std::string>(v))
             .first;
  }
  return it->second;
}

}  // namespace repro
