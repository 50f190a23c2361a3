#include "device/descriptor.hpp"

#include <stdexcept>
#include <utility>

namespace repro::device {

namespace {

using analysis::Code;

// Shortest-round-trip number rendering, shared with the JSON writer so
// summaries and serialized descriptors can never disagree on a value.
std::string fmt(double d) { return json::format_double(d); }

std::string fmt_bytes(std::int64_t bytes) {
  if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0) {
    return std::to_string(bytes / (1024 * 1024)) + " MB";
  }
  if (bytes >= 1024 && bytes % 1024 == 0) {
    return std::to_string(bytes / 1024) + " KB";
  }
  return std::to_string(bytes) + " B";
}

// Strict field readers: every schema field is required, so a
// descriptor always re-serializes to the exact bytes it was parsed
// from. Failures report SL524 and poison the read.
class Reader {
 public:
  Reader(const json::Value& obj, std::string_view where,
         analysis::DiagnosticEngine* diags)
      : obj_(obj), where_(where), diags_(diags) {}

  bool ok() const noexcept { return ok_; }

  void fail(const std::string& msg) {
    ok_ = false;
    if (diags_ != nullptr) {
      diags_->error(Code::kAuditRegistryJson, std::string(where_) + ": " + msg);
    }
  }

  const json::Value* get(const char* key) {
    const json::Value* v = obj_.find(key);
    if (v == nullptr) fail(std::string("missing field '") + key + "'");
    return v;
  }

  void read(const char* key, std::string& out) {
    const json::Value* v = get(key);
    if (v == nullptr) return;
    if (!v->is_string()) return fail(std::string("field '") + key +
                                     "' must be a string");
    out = v->as_string();
  }
  void read(const char* key, double& out) {
    const json::Value* v = get(key);
    if (v == nullptr) return;
    if (!v->is_number()) return fail(std::string("field '") + key +
                                     "' must be a number");
    out = v->as_double();
  }
  void read(const char* key, std::int64_t& out) {
    const json::Value* v = get(key);
    if (v == nullptr) return;
    if (!v->is_int()) return fail(std::string("field '") + key +
                                  "' must be an integer");
    out = v->as_int();
  }
  void read(const char* key, int& out) {
    std::int64_t wide = 0;
    read(key, wide);
    out = static_cast<int>(wide);
  }
  void read(const char* key, bool& out) {
    const json::Value* v = get(key);
    if (v == nullptr) return;
    if (!v->is_bool()) return fail(std::string("field '") + key +
                                   "' must be a boolean");
    out = v->as_bool();
  }

 private:
  const json::Value& obj_;
  std::string_view where_;
  analysis::DiagnosticEngine* diags_;
  bool ok_ = true;
};

void write_device(json::Writer& w, const gpusim::DeviceParams& d) {
  w.begin_object().key("kind").value("gpu").key("name").value(d.name);
  w.key("n_sm").value(d.n_sm).key("n_v").value(d.n_v);
  w.key("regs_per_sm").value(d.regs_per_sm);
  w.key("shared_bytes_per_sm").value(d.shared_bytes_per_sm);
  w.key("max_shared_bytes_per_block").value(d.max_shared_bytes_per_block);
  w.key("shared_banks").value(d.shared_banks);
  w.key("max_tb_per_sm").value(d.max_tb_per_sm);
  w.key("max_threads_per_block").value(d.max_threads_per_block);
  w.key("max_threads_per_sm").value(d.max_threads_per_sm);
  w.key("max_regs_per_thread").value(d.max_regs_per_thread);
  w.key("clock_hz").value(d.clock_hz);
  w.key("mem_bandwidth_bps").value(d.mem_bandwidth_bps);
  w.key("mem_latency_s").value(d.mem_latency_s);
  w.key("kernel_launch_s").value(d.kernel_launch_s);
  w.key("block_sched_s").value(d.block_sched_s);
  w.key("sync_cycles").value(d.sync_cycles);
  w.key("spill_cycles_per_reg").value(d.spill_cycles_per_reg);
  w.key("jitter_amplitude").value(d.jitter_amplitude);
  w.key("warps_for_full_issue").value(d.warps_for_full_issue);
  w.key("latency_stall_factor").value(d.latency_stall_factor);
  w.key("coalesce_words").value(d.coalesce_words);
  w.key("cost").begin_object().key("issue_base").value(d.cost.issue_base);
  w.key("shared_load").value(d.cost.shared_load);
  w.key("fma").value(d.cost.fma).key("add").value(d.cost.add);
  w.key("special").value(d.cost.special).key("addr").value(d.cost.addr);
  w.end_object().end_object();
}

void write_device(json::Writer& w, const cpusim::CpuParams& d) {
  w.begin_object().key("kind").value("cpu").key("name").value(d.name);
  w.key("cores").value(d.cores).key("vector_words").value(d.vector_words);
  w.key("smt").value(d.smt).key("clock_hz").value(d.clock_hz);
  w.key("levels").begin_array();
  for (const cpusim::CacheLevel& lvl : d.levels) {
    w.begin_object().key("name").value(lvl.name);
    w.key("size_bytes").value(lvl.size_bytes);
    w.key("line_bytes").value(lvl.line_bytes);
    w.key("shared").value(lvl.shared).key("latency_s").value(lvl.latency_s);
    w.key("bandwidth_bps").value(lvl.bandwidth_bps).end_object();
  }
  w.end_array().key("write_allocate").value(d.write_allocate);
  w.key("mem_bandwidth_bps").value(d.mem_bandwidth_bps);
  w.key("mem_latency_s").value(d.mem_latency_s);
  w.key("parallel_launch_s").value(d.parallel_launch_s);
  w.key("step_fence_s").value(d.step_fence_s);
  w.key("stall_factor").value(d.stall_factor);
  w.key("oversub_penalty").value(d.oversub_penalty);
  w.key("jitter_amplitude").value(d.jitter_amplitude);
  w.key("cost").begin_object().key("issue_base").value(d.cost.issue_base);
  w.key("load").value(d.cost.load);
  w.key("fma").value(d.cost.fma).key("add").value(d.cost.add);
  w.key("special").value(d.cost.special).key("addr").value(d.cost.addr);
  w.end_object().end_object();
}

std::optional<Descriptor> gpu_from_json(const json::Value& v,
                                        analysis::DiagnosticEngine* diags) {
  gpusim::DeviceParams d;
  Reader r(v, "gpu descriptor", diags);
  r.read("name", d.name);
  r.read("n_sm", d.n_sm);
  r.read("n_v", d.n_v);
  r.read("regs_per_sm", d.regs_per_sm);
  r.read("shared_bytes_per_sm", d.shared_bytes_per_sm);
  r.read("max_shared_bytes_per_block", d.max_shared_bytes_per_block);
  r.read("shared_banks", d.shared_banks);
  r.read("max_tb_per_sm", d.max_tb_per_sm);
  r.read("max_threads_per_block", d.max_threads_per_block);
  r.read("max_threads_per_sm", d.max_threads_per_sm);
  r.read("max_regs_per_thread", d.max_regs_per_thread);
  r.read("clock_hz", d.clock_hz);
  r.read("mem_bandwidth_bps", d.mem_bandwidth_bps);
  r.read("mem_latency_s", d.mem_latency_s);
  r.read("kernel_launch_s", d.kernel_launch_s);
  r.read("block_sched_s", d.block_sched_s);
  r.read("sync_cycles", d.sync_cycles);
  r.read("spill_cycles_per_reg", d.spill_cycles_per_reg);
  r.read("jitter_amplitude", d.jitter_amplitude);
  r.read("warps_for_full_issue", d.warps_for_full_issue);
  r.read("latency_stall_factor", d.latency_stall_factor);
  r.read("coalesce_words", d.coalesce_words);
  const json::Value* cost = v.find("cost");
  if (cost == nullptr || !cost->is_object()) {
    r.fail("missing or non-object 'cost'");
  } else {
    Reader rc(*cost, "gpu descriptor cost", diags);
    rc.read("issue_base", d.cost.issue_base);
    rc.read("shared_load", d.cost.shared_load);
    rc.read("fma", d.cost.fma);
    rc.read("add", d.cost.add);
    rc.read("special", d.cost.special);
    rc.read("addr", d.cost.addr);
    if (!rc.ok()) return std::nullopt;
  }
  if (!r.ok()) return std::nullopt;
  return Descriptor(std::move(d));
}

std::optional<Descriptor> cpu_from_json(const json::Value& v,
                                        analysis::DiagnosticEngine* diags) {
  cpusim::CpuParams d;
  Reader r(v, "cpu descriptor", diags);
  r.read("name", d.name);
  r.read("cores", d.cores);
  r.read("vector_words", d.vector_words);
  r.read("smt", d.smt);
  r.read("clock_hz", d.clock_hz);
  const json::Value* levels = v.find("levels");
  if (levels == nullptr || !levels->is_array()) {
    r.fail("missing or non-array 'levels'");
  } else {
    for (const json::Value& lv : levels->items()) {
      if (!lv.is_object()) {
        r.fail("cache level must be an object");
        break;
      }
      cpusim::CacheLevel lvl;
      Reader rl(lv, "cache level", diags);
      rl.read("name", lvl.name);
      rl.read("size_bytes", lvl.size_bytes);
      rl.read("line_bytes", lvl.line_bytes);
      rl.read("shared", lvl.shared);
      rl.read("latency_s", lvl.latency_s);
      rl.read("bandwidth_bps", lvl.bandwidth_bps);
      if (!rl.ok()) return std::nullopt;
      d.levels.push_back(std::move(lvl));
    }
  }
  r.read("write_allocate", d.write_allocate);
  r.read("mem_bandwidth_bps", d.mem_bandwidth_bps);
  r.read("mem_latency_s", d.mem_latency_s);
  r.read("parallel_launch_s", d.parallel_launch_s);
  r.read("step_fence_s", d.step_fence_s);
  r.read("stall_factor", d.stall_factor);
  r.read("oversub_penalty", d.oversub_penalty);
  r.read("jitter_amplitude", d.jitter_amplitude);
  const json::Value* cost = v.find("cost");
  if (cost == nullptr || !cost->is_object()) {
    r.fail("missing or non-object 'cost'");
  } else {
    Reader rc(*cost, "cpu descriptor cost", diags);
    rc.read("issue_base", d.cost.issue_base);
    rc.read("load", d.cost.load);
    rc.read("fma", d.cost.fma);
    rc.read("add", d.cost.add);
    rc.read("special", d.cost.special);
    rc.read("addr", d.cost.addr);
    if (!rc.ok()) return std::nullopt;
  }
  if (!r.ok()) return std::nullopt;
  return Descriptor(std::move(d));
}

}  // namespace

std::string_view to_string(Kind k) noexcept {
  return k == Kind::kGpu ? "gpu" : "cpu";
}

const std::string& Descriptor::name() const noexcept {
  return is_gpu() ? std::get<gpusim::DeviceParams>(payload_).name
                  : std::get<cpusim::CpuParams>(payload_).name;
}

double Descriptor::clock_hz() const noexcept {
  return is_gpu() ? std::get<gpusim::DeviceParams>(payload_).clock_hz
                  : std::get<cpusim::CpuParams>(payload_).clock_hz;
}

const gpusim::DeviceParams& Descriptor::gpu() const {
  if (!is_gpu()) {
    throw std::logic_error("descriptor '" + name() + "' is not a GPU");
  }
  return std::get<gpusim::DeviceParams>(payload_);
}

const cpusim::CpuParams& Descriptor::cpu() const {
  if (!is_cpu()) {
    throw std::logic_error("descriptor '" + name() + "' is not a CPU");
  }
  return std::get<cpusim::CpuParams>(payload_);
}

model::HardwareParams Descriptor::to_model_hardware() const {
  return is_gpu() ? std::get<gpusim::DeviceParams>(payload_).to_model_hardware()
                  : std::get<cpusim::CpuParams>(payload_).to_model_hardware();
}

std::string Descriptor::summary() const {
  if (is_gpu()) {
    const gpusim::DeviceParams& d = std::get<gpusim::DeviceParams>(payload_);
    return "gpu: " + std::to_string(d.n_sm) + " SMs x " +
           std::to_string(d.n_v) + " lanes @ " + fmt(d.clock_hz / 1e9) +
           " GHz, " + fmt_bytes(d.shared_bytes_per_sm) + " shared/SM, " +
           fmt(d.mem_bandwidth_bps / 1e9) + " GB/s";
  }
  const cpusim::CpuParams& d = std::get<cpusim::CpuParams>(payload_);
  std::string levels;
  for (const cpusim::CacheLevel& lvl : d.levels) {
    if (!levels.empty()) levels += " / ";
    levels += lvl.name + " " + fmt_bytes(lvl.size_bytes);
    if (lvl.shared) levels += " shared";
  }
  return "cpu: " + std::to_string(d.cores) + " cores x " +
         std::to_string(d.vector_words) + " lanes @ " + fmt(d.clock_hz / 1e9) +
         " GHz, SMT " + std::to_string(d.smt) + ", " + levels + ", " +
         fmt(d.mem_bandwidth_bps / 1e9) + " GB/s";
}

void Descriptor::write(json::Writer& w) const {
  std::visit([&w](const auto& params) { write_device(w, params); }, payload_);
}

std::string Descriptor::to_json() const {
  json::Writer w;
  write(w);
  return w.take();
}

std::optional<Descriptor> Descriptor::from_json(
    const json::Value& v, analysis::DiagnosticEngine* diags) {
  if (!v.is_object()) {
    if (diags != nullptr) {
      diags->error(Code::kAuditRegistryJson,
                   "device descriptor must be a JSON object");
    }
    return std::nullopt;
  }
  const json::Value* kind = v.find("kind");
  if (kind == nullptr || !kind->is_string()) {
    if (diags != nullptr) {
      diags->error(Code::kAuditRegistryJson,
                   "device descriptor lacks a string 'kind'");
    }
    return std::nullopt;
  }
  if (kind->as_string() == "gpu") return gpu_from_json(v, diags);
  if (kind->as_string() == "cpu") return cpu_from_json(v, diags);
  if (diags != nullptr) {
    diags->error(Code::kAuditRegistryJson,
                 "unknown device kind '" + kind->as_string() +
                     "' (expected \"gpu\" or \"cpu\")");
  }
  return std::nullopt;
}

}  // namespace repro::device
