// DeviceRegistry: the open replacement for the closed
// device_by_name()/paper_devices() surface.
//
// A registry owns an ordered set of Descriptors keyed by their unique
// names. The paper's devices (two Maxwell GPUs, two x86 CPUs) come
// pre-registered in the process-wide registry(); tools can import
// more from JSON ({"devices": [...]}, byte-stable round-trip) so a
// new machine is a data file, not a code change.
//
// Failures are structured diagnostics, not bare throws:
//   SL522 — unknown name (lists registered names + nearest matches),
//   SL523 — duplicate registration,
//   SL524 — malformed descriptor/registry JSON.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "common/json.hpp"
#include "device/descriptor.hpp"

namespace repro::device {

class DeviceRegistry {
 public:
  // Registers a descriptor. Returns false and reports SL523 when a
  // descriptor with the same name is already present.
  bool add(Descriptor d, analysis::DiagnosticEngine* diags = nullptr);

  // Exact-name lookup; nullptr when absent (no diagnostic).
  const Descriptor* find(std::string_view name) const noexcept;

  // Lookup that reports SL522 on a miss, listing the registered names
  // and flagging near-misses ("did you mean ...?") in the hint.
  const Descriptor* resolve(std::string_view name,
                            analysis::DiagnosticEngine* diags) const;

  const std::vector<Descriptor>& devices() const noexcept { return devices_; }
  std::vector<std::string> names() const;
  std::size_t size() const noexcept { return devices_.size(); }

  // Nearest registered names by case-insensitive edit distance, best
  // first; empty when nothing is plausibly close. Exposed for the
  // service's structured unknown-device error.
  std::vector<std::string> nearest(std::string_view name,
                                   std::size_t max_candidates = 3) const;

  // {"devices": [<descriptor>, ...]} in registration order;
  // dump -> load -> dump is byte-identical.
  std::string dump() const;

  // Registers every descriptor of a registry JSON object. Malformed
  // input reports SL524, duplicates SL523; returns true only when
  // every descriptor was added.
  bool load_json(const json::Value& v,
                 analysis::DiagnosticEngine* diags = nullptr);
  bool load(std::string_view text, analysis::DiagnosticEngine* diags = nullptr);

 private:
  std::vector<Descriptor> devices_;
};

// The process-wide registry, pre-registered with the paper's GPUs
// (GTX 980, Titan X) and the CPU backend's reference parts
// (Xeon E5-2690 v4, Ryzen 7 3700X), in that order.
DeviceRegistry& registry();

}  // namespace repro::device
