// Calibrated model inputs shared across tuning runs.
//
// The measured parameters of the model (L, tau_sync, T_sync and
// C_iter; Section 5.2, Tables 3-4) depend only on the machine and the
// stencil, never on the problem size. A CalibrationCache computes
// them once per (device, stencil) and serves every later session of
// the pair from memory: the tuned service keeps one per ServiceCore
// (its sessions and every pipeline plan draw from it), and a
// pipeline::Planner without a shared cache keeps one per plan.
//
// Keys are the device's canonical descriptor JSON (device_key) plus
// the stencil identity (stencil_identity: catalogue name or DSL text),
// so two descriptors that share a name but differ in any parameter, or
// a DSL program named like a catalogue stencil, get their own entries.
// The cache (a repro::LruCache) holds at most `capacity` entries and
// evicts the least recently used one past that. Calibration is
// deterministic, so a served entry equals a fresh calibration bit for
// bit and an evicted one is recomputed identically.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/lru_cache.hpp"
#include "device/descriptor.hpp"
#include "model/talg.hpp"
#include "stencil/stencil.hpp"

namespace repro::tuner {

// Run the micro-benchmarks (Section 5.2) against the descriptor's
// backend: the inputs TuningContext::calibrate fills in.
model::ModelInputs calibrate_model(const device::Descriptor& dev,
                                   const stencil::StencilDef& def);

// The identity of a stencil a request names: its DSL text when it has
// one, else its catalogue name, prefixed so the two cannot collide.
std::string stencil_identity(std::string_view name, std::string_view text);

// The identity of a device: its canonical descriptor JSON. Serializing
// a descriptor is not free, so a caller that looks up many keys of one
// device computes this once.
std::string device_key(const device::Descriptor& dev);

class CalibrationCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  // A capacity below 1 holds one entry.
  explicit CalibrationCache(std::size_t capacity = kDefaultCapacity);

  // calibrate_model(dev, def), computed on the first lookup of (dev,
  // `stencil`) and served from the cache after; `dev_key` is
  // device_key(dev) and `stencil` def's stencil_identity. Thread-safe.
  // The calibration runs outside the lock, so two racing first lookups
  // of one key may both calibrate (each counts a miss) and store one
  // identical entry.
  model::ModelInputs inputs(std::string_view dev_key,
                            const device::Descriptor& dev,
                            const stencil::StencilDef& def,
                            std::string_view stencil);

  // `misses` counts the lookups that calibrated, `evictions` the
  // entries dropped at the cap.
  using Counters = LruCache<model::ModelInputs>::Counters;
  Counters counters() const { return cache_.counters(); }

 private:
  LruCache<model::ModelInputs> cache_;
};

}  // namespace repro::tuner
