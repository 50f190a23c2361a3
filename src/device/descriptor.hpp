// The device-descriptor abstraction: one tagged value that can hold
// either backend's device parameters.
//
// Before this layer, "a device" meant gpusim::DeviceParams and devices
// existed only as two hardcoded accessors; the CPU backend makes the
// machine a real axis. A Descriptor carries a GPU or CPU payload plus
// the identity every consumer needs regardless of backend (name,
// kind, clock, the model-visible hardware subset), and serializes to
// byte-stable JSON so registries can be exported, diffed and imported.
//
// The payload structs themselves stay untouched — gpusim and cpusim
// keep their own vocabulary — and Descriptor converts implicitly from
// both, so `Session(gtx980(), ...)` call sites read as before.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "analysis/diagnostics.hpp"
#include "common/json.hpp"
#include "cpusim/device.hpp"
#include "gpusim/device.hpp"
#include "model/params.hpp"

namespace repro::device {

enum class Kind : std::uint8_t { kGpu, kCpu };

std::string_view to_string(Kind k) noexcept;

class Descriptor {
 public:
  // Default: an empty GPU payload, so aggregate-style contexts
  // (tuner::TuningContext) stay default-constructible.
  Descriptor() : payload_(gpusim::DeviceParams{}) {}
  // Implicit by design: every pre-redesign call site passes a bare
  // gpusim::DeviceParams and must keep compiling unchanged.
  Descriptor(gpusim::DeviceParams gpu) : payload_(std::move(gpu)) {}  // NOLINT
  Descriptor(cpusim::CpuParams cpu) : payload_(std::move(cpu)) {}  // NOLINT

  Kind kind() const noexcept {
    return std::holds_alternative<gpusim::DeviceParams>(payload_) ? Kind::kGpu
                                                                  : Kind::kCpu;
  }
  bool is_gpu() const noexcept { return kind() == Kind::kGpu; }
  bool is_cpu() const noexcept { return kind() == Kind::kCpu; }

  const std::string& name() const noexcept;
  double clock_hz() const noexcept;

  // Checked payload access; throws std::logic_error on a kind
  // mismatch (callers branch on kind() first).
  const gpusim::DeviceParams& gpu() const;
  const cpusim::CpuParams& cpu() const;

  // The subset the analytical model may see, whichever the backend.
  model::HardwareParams to_model_hardware() const;

  // One-line capability summary for listings ("gpu: 16 SMs x 128
  // lanes @ ...").
  std::string summary() const;

  // Byte-stable JSON: fixed key order, shortest-round-trip doubles,
  // written into `w` or returned as text. Parsing it and from_json
  // give back a descriptor that writes the same bytes.
  void write(json::Writer& w) const;
  std::string to_json() const;

  // Parses a descriptor object. On malformed input returns nullopt
  // and reports SL524 diagnostics (when an engine is supplied).
  static std::optional<Descriptor> from_json(
      const json::Value& v, analysis::DiagnosticEngine* diags = nullptr);

 private:
  std::variant<gpusim::DeviceParams, cpusim::CpuParams> payload_;
};

}  // namespace repro::device
