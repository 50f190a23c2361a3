#include "service/index.hpp"

#include <utility>

#include "common/json.hpp"
#include "service/protocol.hpp"
#include "service/store.hpp"
#include "tuner/session.hpp"
#include "tuner/wire.hpp"

namespace repro::service {

namespace wire = tuner::wire;

namespace {

// Stored fragments decode strictly, as requests do; a fragment that
// does not decode disqualifies its payload, so the diagnostics go to
// a throwaway engine.
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

// The canonical key uses the either-or stencil identity convention:
// exactly one of "stencil" / "text".
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

}  // namespace

SimilarityIndex::SimilarityIndex(std::string store_dir)
    : dir_(std::move(store_dir)) {}

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
  ++counters_.appends;
  return entries_.insert_or_assign(e.key, e).second;
}

std::vector<IndexEntry> SimilarityIndex::entries() {
  load_once();
  std::vector<IndexEntry> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) out.push_back(e);
  return out;
}

std::optional<std::size_t> SimilarityIndex::rebuild() {
  entries_.clear();
  if (!scan()) return std::nullopt;
  return entries_.size();
}

void SimilarityIndex::load_once() {
  if (!loaded_) scan();
}

bool SimilarityIndex::scan() {
  loaded_ = true;
  // An entry appended before the scan describes the same saved result
  // as the store's copy, or a newer one, so it is kept.
  return ResultStore(dir_).scan(
      [this](const std::string& key, const std::string& payload) {
        if (std::optional<IndexEntry> e = entry_from(key, payload)) {
          entries_.try_emplace(key, std::move(*e));
        }
      });
}

std::vector<SimilarityIndex::Neighbor> SimilarityIndex::neighbors(
    const std::string& device, const std::string& stencil_name,
    const std::string& stencil_text, const stencil::ProblemSize& problem,
    const stencil::KernelVariant& variant, std::size_t max_results) {
  std::vector<Neighbor> out;
  if (max_results == 0) return out;
  load_once();
  std::vector<const IndexEntry*> match;
  std::vector<tuner::SeedCandidate> candidates;
  for (const auto& [key, e] : entries_) {
    if (e.device != device || e.stencil_name != stencil_name ||
        e.stencil_text != stencil_text || e.problem.dim != problem.dim) {
      continue;
    }
    match.push_back(&e);
    candidates.push_back({e.problem, e.variant});
  }
  // The map iterates in ascending key order, so the ranking's stable
  // ties break on the key.
  for (const std::size_t i :
       tuner::rank_warm_seeds(candidates, problem, variant)) {
    if (out.size() == max_results) break;
    out.push_back(
        {*match[i], stencil::log_distance(problem, match[i]->problem)});
  }
  return out;
}

}  // namespace repro::service
