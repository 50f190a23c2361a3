// The JSON wire form of the tuning vocabulary: a problem size (S, T),
// a tile (tT, tS1, tS2, tS3), a thread block (n1, n2, n3), a kernel
// variant (unroll, staging), the enumeration bounds, and the tuned
// point built from them. Every request, payload, pipeline document,
// plan and index line spells these the same way, so each has exactly
// one encoder and one strict decoder, here:
//
//   {"S":[4096,4096],"T":1024}
//   {"tT":6,"tS1":8,"tS2":160,"tS3":1}
//   {"n1":32,"n2":4,"n3":1}
//   {"unroll":2,"staging":"register"}
//   {"tT_max":24,"tT_step":2,"tS1_max":32,...,"tS3_step":32}
//
// Encoders write every field through a json::Writer (Order below).
// Decoders reject unknown keys and out-of-range values, default the
// optional fields (tS2/tS3 = 1, n2/n3 = 1, the default variant, the
// EnumOptions defaults), and report through the caller's Codes: the
// protocol emits SL405/SL404/SL314, the pipeline IR SL601 behind a
// "stage '<id>': " prefix. A decoder returns nullopt exactly when it
// emitted an error.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/diagnostics.hpp"
#include "common/json.hpp"
#include "hhc/tile_sizes.hpp"
#include "stencil/problem.hpp"
#include "stencil/variant.hpp"
#include "tuner/optimizer.hpp"
#include "tuner/space.hpp"

namespace repro::tuner::wire {

// How a decoder reports a problem.
struct Codes {
  analysis::Code bad;      // wrong type, out of range or unknown key
  analysis::Code missing;  // a required field is absent
  analysis::Code unroll;   // an unroll factor the generator cannot emit
  std::string prefix;      // prepended to every message
};

// The key order an encoder writes: kWire for payloads, documents and
// index lines, kSorted (byte order) for canonical keys. Problem sizes
// and thread blocks read the same either way.
enum class Order : std::uint8_t { kWire, kSorted };

void write(json::Writer& w, const stencil::ProblemSize& p);
void write(json::Writer& w, const hhc::TileSizes& ts,
           Order order = Order::kWire);
void write(json::Writer& w, const hhc::ThreadConfig& thr);
void write(json::Writer& w, const stencil::KernelVariant& var,
           Order order = Order::kWire);
// The eight bounds and steps; the variant list is not part of the
// wire form.
void write(json::Writer& w, const EnumOptions& e, Order order = Order::kWire);

// A tuned point: {"tile","threads"[,"variant"],"feasible","talg",
// "texec","gflops"}, non-finite times rendering as null. The service's
// best_tile and compare payloads sweep the default variant and omit
// it; the planner's stage points carry it.
void write(json::Writer& w, const EvaluatedPoint& ep, bool with_variant);

// A stencil's identity as one member: "text" (the inline DSL program)
// when `text` is non-empty, else "stencil" (the catalogue name). Both
// names sort between "problem" and "threads".
void write_stencil(json::Writer& w, std::string_view name,
                   std::string_view text);

// The integer at `key` when it lies in [lo, hi]; nullopt when the key
// is absent (no diagnostic) or the value is not such an integer
// (codes.bad).
std::optional<std::int64_t> read_int(const json::Value& obj,
                                     std::string_view key, std::int64_t lo,
                                     std::int64_t hi, const Codes& codes,
                                     analysis::DiagnosticEngine& diags);

std::optional<stencil::ProblemSize> parse_problem(
    const json::Value& v, const Codes& codes,
    analysis::DiagnosticEngine& diags);
std::optional<hhc::TileSizes> parse_tile(const json::Value& v,
                                         const Codes& codes,
                                         analysis::DiagnosticEngine& diags);
std::optional<hhc::ThreadConfig> parse_threads(
    const json::Value& v, const Codes& codes,
    analysis::DiagnosticEngine& diags);
std::optional<stencil::KernelVariant> parse_variant(
    const json::Value& v, const Codes& codes,
    analysis::DiagnosticEngine& diags);
// Range checks only; EnumOptions::validate judges the combination.
std::optional<EnumOptions> parse_enum(const json::Value& v, const Codes& codes,
                                      analysis::DiagnosticEngine& diags);

// The shape every decoder above shares.
template <class T>
using Decoder = std::optional<T> (*)(const json::Value&, const Codes&,
                                     analysis::DiagnosticEngine&);

}  // namespace repro::tuner::wire
