#include "tuner/wire.hpp"

#include <algorithm>
#include <initializer_list>
#include <iterator>

namespace repro::tuner::wire {

namespace {

using analysis::DiagnosticEngine;

constexpr std::int64_t kMaxT = std::int64_t{1} << 40;
constexpr std::int64_t kMaxExtent = 1 << 20;  // tile extents, enum bounds
constexpr std::int64_t kMaxThreads = 1024;

// The eight EnumOptions integers in wire order.
struct EnumField {
  std::string_view key;
  std::int64_t EnumOptions::*member;
};
constexpr EnumField kEnumFields[] = {
    {"tT_max", &EnumOptions::tT_max},   {"tT_step", &EnumOptions::tT_step},
    {"tS1_max", &EnumOptions::tS1_max}, {"tS1_step", &EnumOptions::tS1_step},
    {"tS2_max", &EnumOptions::tS2_max}, {"tS2_step", &EnumOptions::tS2_step},
    {"tS3_max", &EnumOptions::tS3_max}, {"tS3_step", &EnumOptions::tS3_step},
};

// Messages are built with += (not `"literal" + std::string`
// temporaries, which GCC 12 Release builds reject under
// -Werror=restrict).
void report(analysis::Code code, const Codes& codes,
            std::initializer_list<std::string_view> parts,
            DiagnosticEngine& diags) {
  std::string msg = codes.prefix;
  for (const std::string_view p : parts) msg += p;
  diags.error(code, std::move(msg));
}

// A JSON object whose keys all appear in `allowed`.
bool check_object(const json::Value& v, std::string_view name,
                  std::initializer_list<std::string_view> allowed,
                  const Codes& codes, DiagnosticEngine& diags) {
  if (!v.is_object()) {
    report(codes.bad, codes, {"'", name, "' must be an object"}, diags);
    return false;
  }
  for (const auto& [key, val] : v.members()) {
    (void)val;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      report(codes.bad, codes, {"unknown '", name, "' field '", key, "'"},
             diags);
      return false;
    }
  }
  return true;
}

// An optional field in [1, hi] that defaults to 1 when absent;
// nullopt when present but malformed.
std::optional<std::int64_t> optional_int(const json::Value& obj,
                                         std::string_view key, std::int64_t hi,
                                         const Codes& codes,
                                         DiagnosticEngine& diags) {
  if (obj.find(key) == nullptr) return 1;
  return read_int(obj, key, 1, hi, codes, diags);
}

}  // namespace

void write(json::Writer& w, const stencil::ProblemSize& p) {
  w.begin_object().key("S").begin_array();
  for (int i = 0; i < p.dim; ++i) w.value(p.S[static_cast<std::size_t>(i)]);
  w.end_array().key("T").value(p.T).end_object();
}

void write(json::Writer& w, const hhc::TileSizes& ts, Order order) {
  w.begin_object();
  if (order == Order::kWire) w.key("tT").value(ts.tT);
  w.key("tS1").value(ts.tS1).key("tS2").value(ts.tS2).key("tS3").value(ts.tS3);
  if (order == Order::kSorted) w.key("tT").value(ts.tT);
  w.end_object();
}

void write(json::Writer& w, const hhc::ThreadConfig& thr) {
  w.begin_object().key("n1").value(thr.n1).key("n2").value(thr.n2);
  w.key("n3").value(thr.n3).end_object();
}

void write(json::Writer& w, const stencil::KernelVariant& var, Order order) {
  const std::string_view staging = stencil::to_string(var.staging);
  w.begin_object();
  if (order == Order::kSorted) w.key("staging").value(staging);
  w.key("unroll").value(var.unroll);
  if (order == Order::kWire) w.key("staging").value(staging);
  w.end_object();
}

void write(json::Writer& w, const EnumOptions& e, Order order) {
  // kEnumFields starts with the tT pair, which sorts last: the sorted
  // order is the wire order rotated by two.
  constexpr std::size_t n = std::size(kEnumFields);
  const std::size_t first = order == Order::kWire ? 0 : 2;
  w.begin_object();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [key, member] = kEnumFields[(first + i) % n];
    w.key(key).value(e.*member);
  }
  w.end_object();
}

void write(json::Writer& w, const EvaluatedPoint& ep, bool with_variant) {
  write(w.begin_object().key("tile"), ep.dp.ts);
  write(w.key("threads"), ep.dp.thr);
  if (with_variant) write(w.key("variant"), ep.dp.var);
  w.key("feasible").value(ep.feasible).key("talg").value(ep.talg);
  w.key("texec").value(ep.texec).key("gflops").value(ep.gflops).end_object();
}

void write_stencil(json::Writer& w, std::string_view name,
                   std::string_view text) {
  w.key(text.empty() ? "stencil" : "text").value(text.empty() ? name : text);
}

std::optional<std::int64_t> read_int(const json::Value& obj,
                                     std::string_view key, std::int64_t lo,
                                     std::int64_t hi, const Codes& codes,
                                     DiagnosticEngine& diags) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return std::nullopt;
  if (!v->is_int() || v->as_int() < lo || v->as_int() > hi) {
    report(codes.bad, codes,
           {"field '", key, "' must be an integer in [", std::to_string(lo),
            ", ", std::to_string(hi), "]"},
           diags);
    return std::nullopt;
  }
  return v->as_int();
}

std::optional<stencil::ProblemSize> parse_problem(const json::Value& v,
                                                  const Codes& codes,
                                                  DiagnosticEngine& diags) {
  if (!check_object(v, "problem", {"S", "T"}, codes, diags)) {
    return std::nullopt;
  }
  const json::Value* s = v.find("S");
  if (s == nullptr || !s->is_array() || s->size() < 1 || s->size() > 3) {
    report(codes.bad, codes,
           {"'problem.S' must be an array of 1 to 3 extents"}, diags);
    return std::nullopt;
  }
  stencil::ProblemSize p;
  p.dim = static_cast<int>(s->size());
  for (std::size_t i = 0; i < s->size(); ++i) {
    const json::Value& e = s->items()[i];
    if (!e.is_int() || e.as_int() < 1) {
      report(codes.bad, codes,
             {"'problem.S' extents must be positive integers"}, diags);
      return std::nullopt;
    }
    p.S[i] = e.as_int();
  }
  const auto t = read_int(v, "T", 1, kMaxT, codes, diags);
  if (!t) {
    if (v.find("T") == nullptr) {
      report(codes.missing, codes, {"'problem.T' is required"}, diags);
    }
    return std::nullopt;
  }
  p.T = *t;
  return p;
}

std::optional<hhc::TileSizes> parse_tile(const json::Value& v,
                                         const Codes& codes,
                                         DiagnosticEngine& diags) {
  if (!check_object(v, "tile", {"tT", "tS1", "tS2", "tS3"}, codes, diags)) {
    return std::nullopt;
  }
  const auto tT = read_int(v, "tT", 1, kMaxExtent, codes, diags);
  const auto tS1 = read_int(v, "tS1", 1, kMaxExtent, codes, diags);
  if (!tT || !tS1) {
    if (v.find("tT") == nullptr || v.find("tS1") == nullptr) {
      report(codes.missing, codes, {"'tile' requires 'tT' and 'tS1'"}, diags);
    }
    return std::nullopt;
  }
  const auto tS2 = optional_int(v, "tS2", kMaxExtent, codes, diags);
  const auto tS3 = optional_int(v, "tS3", kMaxExtent, codes, diags);
  if (!tS2 || !tS3) return std::nullopt;
  return hhc::TileSizes{.tT = *tT, .tS1 = *tS1, .tS2 = *tS2, .tS3 = *tS3};
}

std::optional<hhc::ThreadConfig> parse_threads(const json::Value& v,
                                               const Codes& codes,
                                               DiagnosticEngine& diags) {
  if (!check_object(v, "threads", {"n1", "n2", "n3"}, codes, diags)) {
    return std::nullopt;
  }
  const auto n1 = read_int(v, "n1", 1, kMaxThreads, codes, diags);
  if (!n1) {
    if (v.find("n1") == nullptr) {
      report(codes.missing, codes, {"'threads' requires 'n1'"}, diags);
    }
    return std::nullopt;
  }
  const auto n2 = optional_int(v, "n2", kMaxThreads, codes, diags);
  const auto n3 = optional_int(v, "n3", kMaxThreads, codes, diags);
  if (!n2 || !n3) return std::nullopt;
  return hhc::ThreadConfig{.n1 = static_cast<int>(*n1),
                           .n2 = static_cast<int>(*n2),
                           .n3 = static_cast<int>(*n3)};
}

std::optional<stencil::KernelVariant> parse_variant(const json::Value& v,
                                                    const Codes& codes,
                                                    DiagnosticEngine& diags) {
  if (!check_object(v, "variant", {"unroll", "staging"}, codes, diags)) {
    return std::nullopt;
  }
  stencil::KernelVariant var;
  if (const json::Value* u = v.find("unroll"); u != nullptr) {
    // The int round trip keeps 2^32 + 2 from narrowing into 2.
    if (!u->is_int() || u->as_int() != static_cast<int>(u->as_int()) ||
        !stencil::valid_unroll(static_cast<int>(u->as_int()))) {
      report(codes.unroll, codes,
             {"'variant.unroll' must be 1, 2 or 4 (the factors the kernel "
              "generator emits)"},
             diags);
      return std::nullopt;
    }
    var.unroll = static_cast<int>(u->as_int());
  }
  if (const json::Value* s = v.find("staging"); s != nullptr) {
    if (!s->is_string() ||
        (s->as_string() != "shared" && s->as_string() != "register")) {
      report(codes.bad, codes,
             {"'variant.staging' must be \"shared\" or \"register\""}, diags);
      return std::nullopt;
    }
    var.staging = s->as_string() == "register" ? stencil::Staging::kRegister
                                               : stencil::Staging::kShared;
  }
  return var;
}

std::optional<EnumOptions> parse_enum(const json::Value& v, const Codes& codes,
                                      DiagnosticEngine& diags) {
  if (!v.is_object()) {
    report(codes.bad, codes, {"'enum' must be an object"}, diags);
    return std::nullopt;
  }
  for (const auto& [key, val] : v.members()) {
    (void)val;
    const bool known = std::ranges::any_of(
        kEnumFields, [&key](const EnumField& f) { return f.key == key; });
    if (!known) {
      report(codes.bad, codes, {"unknown 'enum' field '", key, "'"}, diags);
      return std::nullopt;
    }
  }
  EnumOptions e;
  for (const auto& [key, member] : kEnumFields) {
    if (v.find(key) == nullptr) continue;
    const auto i = read_int(v, key, 1, kMaxExtent, codes, diags);
    if (!i) return std::nullopt;
    e.*member = *i;
  }
  return e;
}

}  // namespace repro::tuner::wire
