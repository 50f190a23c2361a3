#include "service/index.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <system_error>

#include "common/json.hpp"
#include "service/protocol.hpp"
#include "service/store.hpp"
#include "tuner/wire.hpp"

namespace repro::service {

namespace fs = std::filesystem;
namespace wire = tuner::wire;

namespace {

// Stored fragments decode strictly, as requests do; a fragment that
// does not decode disqualifies its line or payload, so the diagnostics
// go to a throwaway engine.
template <class T>
std::optional<T> decode(const json::Value* v, wire::Decoder<T> parse) {
  if (v == nullptr) return std::nullopt;
  analysis::DiagnosticEngine discarded;
  return parse(*v, kRequestCodes, discarded);
}

// An absent variant is the default one.
std::optional<stencil::KernelVariant> variant_from(const json::Value* v) {
  if (v == nullptr) return stencil::KernelVariant{};
  return decode(v, &wire::parse_variant);
}

// Both the index line and the canonical key use the either-or
// stencil identity convention: exactly one of "stencil" / "text".
bool stencil_identity_from(const json::Value& obj, IndexEntry& e) {
  const json::Value* name = obj.find("stencil");
  const json::Value* text = obj.find("text");
  if ((name == nullptr) == (text == nullptr)) return false;
  if (name != nullptr) {
    if (!name->is_string()) return false;
    e.stencil_name = name->as_string();
  } else {
    if (!text->is_string()) return false;
    e.stencil_text = text->as_string();
  }
  return true;
}

std::string render_line(const IndexEntry& e) {
  json::Value o = json::Value::object();
  o.set("index_version", SimilarityIndex::kIndexVersion);
  o.set("key", e.key);
  o.set("kind", e.kind);
  o.set("device", e.device);
  if (!e.stencil_text.empty()) {
    o.set("text", e.stencil_text);
  } else {
    o.set("stencil", e.stencil_name);
  }
  o.set("problem", wire::to_json(e.problem));
  o.set("tile", wire::to_json(e.tile));
  o.set("threads", wire::to_json(e.threads));
  o.set("variant", wire::to_json(e.variant));
  o.set("texec", e.texec);
  return o.dump();
}

std::optional<IndexEntry> entry_from_line(const std::string& line) {
  const std::optional<json::Value> doc = json::parse(line);
  if (!doc || !doc->is_object()) return std::nullopt;
  const json::Value* ver = doc->find("index_version");
  if (ver == nullptr || !ver->is_int() ||
      ver->as_int() != SimilarityIndex::kIndexVersion) {
    return std::nullopt;
  }
  IndexEntry e;
  const json::Value* key = doc->find("key");
  const json::Value* kind = doc->find("kind");
  const json::Value* dev = doc->find("device");
  const json::Value* texec = doc->find("texec");
  if (key == nullptr || !key->is_string() || kind == nullptr ||
      !kind->is_string() || dev == nullptr || !dev->is_string() ||
      texec == nullptr || !texec->is_number() ||
      !stencil_identity_from(*doc, e)) {
    return std::nullopt;
  }
  e.key = key->as_string();
  e.kind = kind->as_string();
  e.device = dev->as_string();
  e.texec = texec->as_double();
  const auto problem = decode(doc->find("problem"), &wire::parse_problem);
  const auto tile = decode(doc->find("tile"), &wire::parse_tile);
  const auto threads = decode(doc->find("threads"), &wire::parse_threads);
  const auto variant = variant_from(doc->find("variant"));
  if (!problem || !tile || !threads || !variant) return std::nullopt;
  e.problem = *problem;
  e.tile = *tile;
  e.threads = *threads;
  e.variant = *variant;
  return e;
}

}  // namespace

SimilarityIndex::SimilarityIndex(std::string store_dir)
    : dir_(std::move(store_dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  // Failure is tolerated: append degrades to a counted no-op and
  // load/rebuild to an empty index — exactly like the store itself.
}

std::string SimilarityIndex::path() const { return dir_ + "/index.jsonl"; }

std::optional<IndexEntry> SimilarityIndex::entry_from(
    const std::string& key, const std::string& payload) {
  const std::optional<json::Value> kdoc = json::parse(key);
  if (!kdoc || !kdoc->is_object()) return std::nullopt;
  IndexEntry e;
  e.key = key;
  const json::Value* kind = kdoc->find("kind");
  const json::Value* dev = kdoc->find("device");
  if (kind == nullptr || !kind->is_string() || dev == nullptr ||
      !dev->is_string() || !stencil_identity_from(*kdoc, e)) {
    return std::nullopt;
  }
  e.kind = kind->as_string();
  e.device = dev->as_string();
  const auto problem = decode(kdoc->find("problem"), &wire::parse_problem);
  if (!problem) return std::nullopt;
  e.problem = *problem;

  const std::optional<json::Value> pdoc = json::parse(payload);
  if (!pdoc || !pdoc->is_object()) return std::nullopt;
  // Which payload fragment carries the tuned point: the predict
  // payload is its own (tile, threads, texec) record; best_tile and
  // compare_strategies nest theirs under "best" / "exhaustive". Other
  // kinds carry nothing seedable.
  const json::Value* point = nullptr;
  if (e.kind == "predict") {
    point = &*pdoc;
  } else if (e.kind == "best_tile") {
    point = pdoc->find("best");
  } else if (e.kind == "compare_strategies") {
    point = pdoc->find("exhaustive");
  } else {
    return std::nullopt;
  }
  if (point == nullptr || !point->is_object()) return std::nullopt;
  const json::Value* feasible = point->find("feasible");
  const json::Value* texec = point->find("texec");
  if (feasible == nullptr || !feasible->is_bool() || !feasible->as_bool() ||
      texec == nullptr || !texec->is_number()) {
    return std::nullopt;
  }
  const auto tile = decode(point->find("tile"), &wire::parse_tile);
  const auto threads = decode(point->find("threads"), &wire::parse_threads);
  // Only predict payloads record a variant (top-level, when the
  // request priced one); best/exhaustive points are default-variant.
  const auto variant = variant_from(
      e.kind == "predict" ? pdoc->find("variant") : nullptr);
  if (!tile || !threads || !variant) return std::nullopt;
  e.tile = *tile;
  e.threads = *threads;
  e.variant = *variant;
  e.texec = texec->as_double();
  return e;
}

bool SimilarityIndex::append(const IndexEntry& e) {
  std::ofstream out(path(), std::ios::binary | std::ios::app);
  if (!out) return false;
  out << render_line(e) << "\n";
  out.flush();
  if (!out.good()) return false;
  ++counters_.appends;
  return true;
}

std::vector<IndexEntry> SimilarityIndex::load() {
  std::ifstream in(path(), std::ios::binary);
  // Ascending-key map: later lines supersede earlier ones, and the
  // returned order is deterministic regardless of append history.
  std::map<std::string, IndexEntry> live;
  std::string line;
  while (in && std::getline(in, line)) {
    if (line.empty()) continue;
    std::optional<IndexEntry> e = entry_from_line(line);
    if (!e) {
      ++counters_.skipped;
      continue;
    }
    live[e->key] = std::move(*e);
  }
  std::vector<IndexEntry> out;
  out.reserve(live.size());
  for (auto& [key, e] : live) {
    // The index only ever *describes* the store; an entry whose
    // backing file is gone (pruned, hand-deleted) is a miss.
    std::error_code ec;
    if (!fs::exists(dir_ + "/" + fnv1a_hex(key) + ".json", ec)) {
      ++counters_.stale;
      continue;
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::optional<std::size_t> SimilarityIndex::rebuild() {
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return std::nullopt;
  std::map<std::string, IndexEntry> entries;
  for (const fs::directory_entry& de : it) {
    if (!de.is_regular_file(ec) || de.path().extension() != ".json") continue;
    std::ifstream in(de.path(), std::ios::binary);
    if (!in) continue;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::optional<json::Value> doc = json::parse(buf.str());
    if (!doc || !doc->is_object()) continue;
    const json::Value* ver = doc->find("store_version");
    const json::Value* key = doc->find("key");
    const json::Value* payload = doc->find("payload");
    if (ver == nullptr || !ver->is_int() ||
        ver->as_int() != ResultStore::kStoreVersion || key == nullptr ||
        !key->is_string() || payload == nullptr || !payload->is_string()) {
      continue;
    }
    std::optional<IndexEntry> e =
        entry_from(key->as_string(), payload->as_string());
    if (e) entries[e->key] = std::move(*e);
  }
  const std::string tmp = path() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return std::nullopt;
    for (const auto& [key, e] : entries) out << render_line(e) << "\n";
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      return std::nullopt;
    }
  }
  if (std::rename(tmp.c_str(), path().c_str()) != 0) {
    std::remove(tmp.c_str());
    return std::nullopt;
  }
  return entries.size();
}

std::vector<SimilarityIndex::Neighbor> SimilarityIndex::neighbors(
    const std::string& device, const std::string& stencil_name,
    const std::string& stencil_text, const stencil::ProblemSize& problem,
    const stencil::KernelVariant& variant, std::size_t max_results) {
  std::vector<Neighbor> out;
  if (max_results == 0) return out;
  for (IndexEntry& e : load()) {
    if (e.device != device || e.stencil_name != stencil_name ||
        e.stencil_text != stencil_text || e.problem.dim != problem.dim) {
      continue;
    }
    const double dist = stencil::log_distance(problem, e.problem);
    out.push_back(Neighbor{std::move(e), dist});
  }
  // Same-variant entries first (another variant's point is rejected
  // in-space by a default-variant sweep, wasting the seed slot), then
  // by distance. load() returns ascending-key order, so equal ranks
  // tie-break on the key deterministically via the stable sort.
  std::stable_sort(out.begin(), out.end(),
                   [&variant](const Neighbor& a, const Neighbor& b) {
                     const bool am = a.entry.variant == variant;
                     const bool bm = b.entry.variant == variant;
                     if (am != bm) return am;
                     return a.distance < b.distance;
                   });
  if (out.size() > max_results) out.resize(max_results);
  return out;
}

}  // namespace repro::service
