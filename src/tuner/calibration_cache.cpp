#include "tuner/calibration_cache.hpp"

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

std::string device_key(const device::Descriptor& dev) {
  return dev.to_json();
}

CalibrationCache::CalibrationCache(std::size_t capacity) : cache_(capacity) {}

model::ModelInputs CalibrationCache::inputs(std::string_view dev_key,
                                            const device::Descriptor& dev,
                                            const stencil::StencilDef& def,
                                            std::string_view stencil) {
  std::string key(dev_key);
  key += '\n';
  key += stencil;
  return cache_.get_or_make(std::move(key),
                            [&] { return calibrate_model(dev, def); });
}

}  // namespace repro::tuner
