#include "tuner/calibration_cache.hpp"

#include <algorithm>

#include "cpusim/microbench.hpp"
#include "gpusim/microbench.hpp"

namespace repro::tuner {

model::ModelInputs calibrate_model(const device::Descriptor& dev,
                                   const stencil::StencilDef& def) {
  return dev.is_gpu() ? gpusim::calibrate_model(dev.gpu(), def)
                      : cpusim::calibrate_model(dev.cpu(), def);
}

std::string stencil_identity(std::string_view name, std::string_view text) {
  std::string id = text.empty() ? "name:" : "text:";
  id += text.empty() ? name : text;
  return id;
}

CalibrationCache::CalibrationCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

model::ModelInputs CalibrationCache::inputs(const device::Descriptor& dev,
                                            const stencil::StencilDef& def,
                                            std::string_view stencil) {
  std::string key = dev.to_json().dump();
  key += '\n';
  key += stencil;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      ++counters_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
    ++counters_.misses;
  }
  model::ModelInputs in = calibrate_model(dev, def);
  std::lock_guard<std::mutex> lk(mu_);
  if (index_.contains(key)) return in;  // a racing lookup stored it
  lru_.emplace_front(key, in);
  index_.emplace(std::move(key), lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++counters_.evictions;
  }
  return in;
}

CalibrationCache::Counters CalibrationCache::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  Counters c = counters_;
  c.entries = lru_.size();
  return c;
}

}  // namespace repro::tuner
