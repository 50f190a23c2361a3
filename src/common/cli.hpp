// Tiny command-line flag parser for bench/example binaries.
// Supports --flag (bool), --key=value and "--key value" forms.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace repro {

class CliArgs {
 public:
  // `bool_flags` names options that never take a value: "--flag x"
  // then leaves x positional instead of consuming it as the value.
  CliArgs(int argc, const char* const* argv,
          std::vector<std::string> bool_flags = {});

  bool has_flag(const std::string& name) const;
  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, const std::string& def) const;
  long long get_int_or(const std::string& name, long long def) const;
  // --name as a base-10 integer in [lo, hi], or `def` when absent.
  // nullopt when the value is empty, has trailing characters or lies
  // outside the range, so the caller can reject it by flag name.
  std::optional<long long> get_int_in(const std::string& name, long long def,
                                      long long lo, long long hi) const;
  double get_double_or(const std::string& name, double def) const;

  // Names of every --flag / --key=value seen, for strict binaries
  // that want to reject unknown options instead of ignoring them.
  std::vector<std::string> keys() const;

  // Non-flag positional arguments, in order.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  const std::string& program_name() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace repro
