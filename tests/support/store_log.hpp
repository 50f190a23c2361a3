// Byte-level access to a ResultStore log for tests that damage it on
// purpose: whole-file reads and writes, and the record layout of
// service/store.hpp (32-byte header: magic, version, key length,
// payload length, write time, checksum; then key and payload).
#pragma once

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "service/store.hpp"

namespace repro::test {

inline constexpr std::size_t kVersionAt = 4;
inline constexpr std::size_t kChecksumAt = 24;

inline std::string read_bytes(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

inline void write_bytes(const std::filesystem::path& p, std::string_view b) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(b.data(), static_cast<std::streamsize>(b.size()));
}

// The bytes one record of (key, payload) takes in the log.
inline std::size_t record_size(std::string_view key, std::string_view payload) {
  return service::ResultStore::kHeaderBytes + key.size() + payload.size();
}

// Recomputes the checksum of the `len`-byte record at `at` in `log`,
// so an edited record reads as intact.
inline void reseal(std::string& log, std::size_t at, std::size_t len) {
  const std::uint64_t sum =
      service::ResultStore::checksum(std::string_view(log).substr(at, len));
  std::memcpy(log.data() + at + kChecksumAt, &sum, sizeof sum);
}

}  // namespace repro::test
