// stencil-lint: static analysis and diagnostics for stencil DSL
// programs and tile/thread configurations, ahead of modeling or
// simulation. Wraps analysis::lint_stencil_text: parses the program
// (collecting every problem instead of stopping at the first
// exception), extracts the dependence cone, and — when --tile is
// given — checks the configuration against the Eqn 31 feasibility
// constraints, the 48 KB rule, warp alignment, register pressure and
// partial-tile hazards for the selected device.
//
// --audit additionally runs the semantic audit pass (SL5xx): tap
// range analysis, static resource prediction, device-descriptor
// invariants and sweep-space dead-region certificates, with fix-it
// hints on the findings.
//
// Batch mode: several inputs may be given in one invocation; each is
// linted independently (CI gates on the combined exit status).
//
// Exit status: 0 = clean (warnings allowed), 1 = error diagnostics
// were emitted for any input, 2 = bad command line or unreadable file.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/audit.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/lint.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "device/registry.hpp"
#include "stencil/stencil.hpp"

namespace {

using namespace repro;

int usage(const char* prog) {
  std::fprintf(stderr,
               "stencil-lint: static analysis for stencil programs and tile "
               "configurations\n"
               "\n"
               "usage:\n"
               "  %s [options] <file.stencil | -> [more files...]\n"
               "  %s --stencil=<catalogue-name> [options]\n"
               "  %s --list-codes\n"
               "\n"
               "options:\n"
               "  --json                    emit diagnostics as JSON (one "
               "array per run)\n"
               "  --audit                   run the semantic audit pass "
               "(SL5xx) with fix-it hints\n"
               "  --device=<name>           any registered device (GPU or "
               "CPU) for configuration\n"
               "                            checks; gtx980/titanx shorthands "
               "accepted (default gtx980)\n"
               "  --devices=<file.json>     import extra device descriptors "
               "into the registry\n"
               "  --tile=tT,tS1[,tS2[,tS3]] tile sizes to legality-check\n"
               "  --threads=n1[,n2[,n3]]    thread-block shape\n"
               "  --size=S1[,S2[,S3]]       problem spatial extents\n"
               "  --steps=T                 time steps\n"
               "  --warp=N                  warp width (default 32)\n",
               prog, prog, prog);
  return 2;
}

std::optional<std::vector<std::int64_t>> parse_int_list(
    const std::string& s, std::size_t min_n, std::size_t max_n) {
  std::vector<std::int64_t> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      std::size_t used = 0;
      out.push_back(std::stoll(item, &used));
      if (used != item.size()) return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (out.size() < min_n || out.size() > max_n) return std::nullopt;
  return out;
}

int list_codes() {
  std::printf("%-7s %s\n", "code", "meaning");
  for (const analysis::Code c : analysis::all_codes()) {
    std::printf("%-7s %s\n", std::string(analysis::code_name(c)).c_str(),
                std::string(analysis::code_summary(c)).c_str());
  }
  return 0;
}

std::string read_stream(std::istream& in) {
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// One linted input: either a file path / "-" or a catalogue name.
struct Input {
  std::string source_name;
  std::string text;        // DSL text, or
  bool catalogue = false;  // ... resolve `name` from the catalogue
  std::string name;
};

struct FileReport {
  std::string source_name;
  analysis::DiagnosticEngine diags;
  std::optional<stencil::StencilDef> def;
  std::optional<analysis::DependenceCone> cone;
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"json", "list-codes", "help", "audit"});

  if (args.has_flag("list-codes")) return list_codes();
  if (args.has_flag("help")) return usage(argv[0]) == 2 ? 0 : 0;

  // A misspelled option must not silently pass as "checked": every
  // flag this binary understands is listed here.
  for (const std::string& key : args.keys()) {
    static constexpr const char* kKnown[] = {
        "json", "audit", "device", "tile",    "threads",
        "size", "steps", "warp",   "stencil", "devices"};
    bool known = false;
    for (const char* k : kKnown) known = known || key == k;
    if (!known) {
      std::fprintf(stderr, "unknown option --%s (see --help)\n", key.c_str());
      return 2;
    }
  }

  const auto catalogue_name = args.get("stencil");
  if (args.positional().empty() && !catalogue_name) {
    return usage(argv[0]);
  }

  const bool audit = args.has_flag("audit");
  analysis::LintOptions opt;
  // --devices=FILE: import extra descriptors before the lookup, same
  // format as `tuned devices --json`.
  if (const auto devfile = args.get("devices")) {
    std::ifstream f(*devfile);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", devfile->c_str());
      return 2;
    }
    analysis::DiagnosticEngine idiags;
    if (!device::registry().load(read_stream(f), &idiags)) {
      std::fprintf(
          stderr, "%s",
          analysis::render_human(idiags.diagnostics(), *devfile).c_str());
      return 2;
    }
  }
  const std::string device = args.get_or("device", "gtx980");
  // The legacy shorthands stay; anything else is a registry name, so
  // the CPU descriptors (and imported ones) work unchanged.
  const std::string device_name = device == "gtx980"   ? "GTX 980"
                                  : device == "titanx" ? "Titan X"
                                                       : device;
  analysis::DiagnosticEngine ddiags;
  const device::Descriptor* devp =
      device::registry().resolve(device_name, &ddiags);
  if (devp == nullptr) {
    std::fprintf(
        stderr, "%s",
        analysis::render_human(ddiags.diagnostics(), "<device>").c_str());
    return 2;
  }
  const device::Descriptor& dev = *devp;
  opt.hw = dev.to_model_hardware();
  opt.warp = args.get_int_or("warp", 32);
  if (opt.warp <= 0) {
    std::fprintf(stderr, "--warp must be positive\n");
    return 2;
  }

  if (const auto tile = args.get("tile")) {
    const auto v = parse_int_list(*tile, 2, 4);
    if (!v) {
      std::fprintf(stderr, "--tile expects tT,tS1[,tS2[,tS3]]\n");
      return 2;
    }
    hhc::TileSizes ts;
    ts.tT = (*v)[0];
    ts.tS1 = (*v)[1];
    if (v->size() > 2) ts.tS2 = (*v)[2];
    if (v->size() > 3) ts.tS3 = (*v)[3];
    opt.ts = ts;
  }
  if (const auto threads = args.get("threads")) {
    const auto v = parse_int_list(*threads, 1, 3);
    if (!v) {
      std::fprintf(stderr, "--threads expects n1[,n2[,n3]]\n");
      return 2;
    }
    hhc::ThreadConfig thr;
    thr.n1 = static_cast<int>((*v)[0]);
    if (v->size() > 1) thr.n2 = static_cast<int>((*v)[1]);
    if (v->size() > 2) thr.n3 = static_cast<int>((*v)[2]);
    opt.thr = thr;
  }
  if (const auto size = args.get("size")) {
    const auto v = parse_int_list(*size, 1, 3);
    if (!v) {
      std::fprintf(stderr, "--size expects S1[,S2[,S3]]\n");
      return 2;
    }
    stencil::ProblemSize p;
    p.dim = static_cast<int>(v->size());
    for (std::size_t i = 0; i < v->size(); ++i) p.S[i] = (*v)[i];
    p.T = args.get_int_or("steps", 1);
    opt.problem = p;
  }

  // Collect the batch: every positional plus, when given, the
  // catalogue stencil.
  std::vector<Input> inputs;
  if (catalogue_name) {
    Input in;
    in.source_name = "<catalogue:" + *catalogue_name + ">";
    in.catalogue = true;
    in.name = *catalogue_name;
    inputs.push_back(std::move(in));
  }
  for (const std::string& path : args.positional()) {
    Input in;
    in.source_name = path == "-" ? "<stdin>" : path;
    if (path == "-") {
      in.text = read_stream(std::cin);
    } else {
      std::ifstream f(path);
      if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 2;
      }
      in.text = read_stream(f);
    }
    inputs.push_back(std::move(in));
  }

  analysis::AuditOptions aopt;
  if (audit) {
    aopt.ts = opt.ts;
    aopt.thr = opt.thr;
    aopt.problem = opt.problem;
    aopt.dev = dev;
    aopt.warp = opt.warp;
    // Certify the default enumeration lattice: prove the infeasible
    // sub-boxes once instead of letting a later sweep reject them
    // point by point.
    aopt.sweep = analysis::SweepGrid{};
  }

  std::vector<FileReport> reports(inputs.size());
  bool any_errors = false;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Input& in = inputs[i];
    FileReport& rep = reports[i];
    rep.source_name = in.source_name;
    try {
      if (audit) {
        analysis::AuditResult res;
        if (in.catalogue) {
          res = analysis::audit_stencil_def(
              stencil::get_stencil_by_name(in.name), aopt, rep.diags);
        } else {
          res = analysis::audit_stencil_text(in.text, aopt, rep.diags);
        }
        rep.def = res.def;
        rep.cone = res.cone;
      } else {
        analysis::LintResult res;
        if (in.catalogue) {
          res = analysis::lint_stencil_def(
              stencil::get_stencil_by_name(in.name), opt, rep.diags);
        } else {
          res = analysis::lint_stencil_text(in.text, opt, rep.diags);
        }
        rep.def = res.def;
        rep.cone = res.cone;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }

    // When the problem's dimensionality disagrees with the stencil's,
    // the size flag was probably mistyped — surface it rather than
    // silently checking a different problem.
    if (rep.def && opt.problem && opt.problem->dim != rep.def->dim) {
      rep.diags.warn(analysis::Code::kTilePartial,
                     "--size has " + std::to_string(opt.problem->dim) +
                         " extents but the stencil is " +
                         std::to_string(rep.def->dim) +
                         "-dimensional; divisibility checks used the given "
                         "extents as-is");
    }
    any_errors = any_errors || rep.diags.has_errors();
  }

  if (args.has_flag("json")) {
    if (reports.size() == 1) {
      // Single-input invocations keep the legacy shape: one array of
      // diagnostics.
      std::printf("%s\n",
                  analysis::render_json(reports[0].diags.diagnostics())
                      .c_str());
    } else {
      // Batch shape: one object per input, in argument order.
      std::string out = "[";
      for (std::size_t i = 0; i < reports.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out += " {\"file\": ";
        json::escape_string(out, reports[i].source_name);
        out += ", \"ok\": ";
        out += reports[i].diags.has_errors() ? "false" : "true";
        out += ", \"diagnostics\": ";
        out += analysis::render_json(reports[i].diags.diagnostics());
        out += "}";
      }
      out += "\n]";
      std::printf("%s\n", out.c_str());
    }
  } else {
    for (const FileReport& rep : reports) {
      std::printf("%s", analysis::render_human(rep.diags.diagnostics(),
                                               rep.source_name)
                            .c_str());
      if (rep.def && rep.cone) {
        std::printf("%s: %s — dim=%d taps=%zu radius=(%d,%d,%d) r=%d%s\n",
                    rep.source_name.c_str(),
                    rep.diags.has_errors() ? "invalid" : "ok",
                    rep.def->dim, rep.cone->tap_count, rep.cone->radius[0],
                    rep.cone->radius[1], rep.cone->radius[2],
                    rep.cone->max_radius,
                    rep.cone->symmetric ? "" : " (asymmetric)");
      } else {
        std::printf("%s: invalid — %zu error(s)\n", rep.source_name.c_str(),
                    rep.diags.count(analysis::Severity::kError));
      }
    }
  }
  return any_errors ? 1 : 0;
}
