#include "service/store.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/json.hpp"

namespace repro::service {

namespace fs = std::filesystem;

std::string fnv1a_hex(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[h & 0xf];
    h >>= 4;
  }
  return out;
}

namespace {

struct Entry {
  std::string key;
  std::string payload;
};

// The one envelope check, shared by load() and scan(): the file must
// read fully and hold {"store_version":<current>,"key":"...",
// "payload":"..."}, and its name stem must be the key's hash.
std::optional<Entry> decode_entry(std::istream& in, std::string_view stem) {
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  const std::optional<json::Value> doc = json::parse(buf.str());
  if (!doc || !doc->is_object()) return std::nullopt;
  const json::Value* version = doc->find("store_version");
  const json::Value* key = doc->find("key");
  const json::Value* payload = doc->find("payload");
  if (version == nullptr || !version->is_int() ||
      version->as_int() != ResultStore::kStoreVersion || key == nullptr ||
      !key->is_string() || payload == nullptr || !payload->is_string() ||
      fnv1a_hex(key->as_string()) != stem) {
    return std::nullopt;
  }
  return Entry{key->as_string(), payload->as_string()};
}

}  // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  // Failure is tolerated; load/save degrade to miss/error below.
}

std::string ResultStore::path_for(const std::string& key) const {
  return dir_ + "/" + fnv1a_hex(key) + ".json";
}

ResultStore::DirStats ResultStore::dir_stats() const {
  DirStats s;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return s;
  const fs::file_time_type now = fs::file_time_type::clock::now();
  for (const fs::directory_entry& de : it) {
    if (!de.is_regular_file(ec) || de.path().extension() != ".json") continue;
    const std::uintmax_t size = de.file_size(ec);
    if (ec) continue;
    const fs::file_time_type mtime = de.last_write_time(ec);
    if (ec) continue;
    const double age =
        std::chrono::duration<double>(now - mtime).count();
    if (s.entries == 0 || age > s.oldest_age_seconds) {
      s.oldest_age_seconds = age;
    }
    if (s.entries == 0 || age < s.newest_age_seconds) {
      s.newest_age_seconds = age;
    }
    ++s.entries;
    s.bytes += static_cast<std::uint64_t>(size);
  }
  return s;
}

std::optional<std::string> ResultStore::load(const std::string& key) {
  std::ifstream in(path_for(key), std::ios::binary);
  if (!in) {
    ++counters_.misses;
    return std::nullopt;
  }
  std::optional<Entry> e = decode_entry(in, fnv1a_hex(key));
  // Hash collisions and hand-edited entries alike: the full key must
  // match, or the entry is somebody else's answer.
  if (!e || e->key != key) {
    ++counters_.misses;
    ++counters_.errors;
    return std::nullopt;
  }
  ++counters_.hits;
  return std::move(e->payload);
}

bool ResultStore::scan(
    const std::function<void(const std::string& key,
                             const std::string& payload)>& visit) const {
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    const fs::path& p = it->path();
    std::error_code file_ec;
    if (p.extension() != ".json" || !it->is_regular_file(file_ec)) continue;
    std::ifstream in(p, std::ios::binary);
    if (!in) continue;
    if (const std::optional<Entry> e = decode_entry(in, p.stem().string())) {
      visit(e->key, e->payload);
    }
  }
  return !ec;
}

bool ResultStore::save(const std::string& key, const std::string& payload) {
  const std::string path = path_for(key);
  const std::string tmp = path + ".tmp";

  std::string body = "{\"store_version\":" + std::to_string(kStoreVersion) +
                     ",\"key\":";
  json::escape_string(body, key);
  body += ",\"payload\":";
  json::escape_string(body, payload);
  body += "}\n";

  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      ++counters_.errors;
      return false;
    }
    out << body;
    out.flush();
    if (!out.good()) {
      ++counters_.errors;
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ++counters_.errors;
    std::remove(tmp.c_str());
    return false;
  }
  ++counters_.writes;
  return true;
}

}  // namespace repro::service
