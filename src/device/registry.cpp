#include "device/registry.hpp"

#include <algorithm>
#include <cctype>

namespace repro::device {

namespace {

using analysis::Code;

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

// Plain Levenshtein distance; names are a handful of words, so the
// quadratic table is nothing.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
      diag = up;
    }
  }
  return row[b.size()];
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

}  // namespace

bool DeviceRegistry::add(Descriptor d, analysis::DiagnosticEngine* diags) {
  if (find(d.name()) != nullptr) {
    if (diags != nullptr) {
      diags->error(Code::kAuditDuplicateDevice,
                   "device '" + d.name() + "' is already registered");
    }
    return false;
  }
  devices_.push_back(std::move(d));
  return true;
}

const Descriptor* DeviceRegistry::find(std::string_view name) const noexcept {
  for (const Descriptor& d : devices_) {
    if (d.name() == name) return &d;
  }
  return nullptr;
}

const Descriptor* DeviceRegistry::resolve(
    std::string_view name, analysis::DiagnosticEngine* diags) const {
  const Descriptor* d = find(name);
  if (d != nullptr) return d;
  if (diags != nullptr) {
    analysis::Diagnostic diag;
    diag.severity = analysis::Severity::kError;
    diag.code = Code::kAuditUnknownDevice;
    diag.message = "unknown device '" + std::string(name) +
                   "'; registered devices: " + join(names(), ", ");
    const std::vector<std::string> close = nearest(name);
    if (!close.empty()) {
      diag.hint = "did you mean " + join(close, " or ") + "?";
    }
    diags->add(std::move(diag));
  }
  return nullptr;
}

std::vector<std::string> DeviceRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(devices_.size());
  for (const Descriptor& d : devices_) out.push_back(d.name());
  return out;
}

std::vector<std::string> DeviceRegistry::nearest(
    std::string_view name, std::size_t max_candidates) const {
  const std::string needle = lower(name);
  std::vector<std::pair<std::size_t, std::string>> scored;
  for (const Descriptor& d : devices_) {
    const std::size_t dist = edit_distance(needle, lower(d.name()));
    // Plausibility cutoff: more than half the name wrong is not a
    // near-miss worth suggesting.
    const std::size_t budget = std::max<std::size_t>(2, d.name().size() / 2);
    if (dist <= budget) scored.emplace_back(dist, d.name());
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> out;
  for (const auto& [dist, n] : scored) {
    if (out.size() >= max_candidates) break;
    out.push_back(n);
  }
  return out;
}

std::string DeviceRegistry::dump() const {
  json::Writer w;
  w.begin_object().key("devices").begin_array();
  for (const Descriptor& d : devices_) d.write(w);
  return w.end_array().end_object().take();
}

bool DeviceRegistry::load_json(const json::Value& v,
                               analysis::DiagnosticEngine* diags) {
  if (!v.is_object()) {
    if (diags != nullptr) {
      diags->error(Code::kAuditRegistryJson,
                   "device registry must be a JSON object");
    }
    return false;
  }
  const json::Value* arr = v.find("devices");
  if (arr == nullptr || !arr->is_array()) {
    if (diags != nullptr) {
      diags->error(Code::kAuditRegistryJson,
                   "device registry lacks a 'devices' array");
    }
    return false;
  }
  bool all_ok = true;
  for (const json::Value& item : arr->items()) {
    std::optional<Descriptor> d = Descriptor::from_json(item, diags);
    if (!d.has_value()) {
      all_ok = false;
      continue;
    }
    all_ok = add(std::move(*d), diags) && all_ok;
  }
  return all_ok;
}

bool DeviceRegistry::load(std::string_view text,
                          analysis::DiagnosticEngine* diags) {
  std::string err;
  std::optional<json::Value> v = json::parse(text, &err);
  if (!v.has_value()) {
    if (diags != nullptr) {
      diags->error(Code::kAuditRegistryJson,
                   "device registry JSON does not parse: " + err);
    }
    return false;
  }
  return load_json(*v, diags);
}

DeviceRegistry& registry() {
  static DeviceRegistry* reg = [] {
    auto* r = new DeviceRegistry();
    r->add(gpusim::gtx980());
    r->add(gpusim::titan_x());
    r->add(cpusim::xeon_e5_2690v4());
    r->add(cpusim::ryzen_3700x());
    return r;
  }();
  return *reg;
}

}  // namespace repro::device
