// ftdl-lint — static verifier for compiled instruction artifacts.
//
// Disassembles a stream, runs the ftdl::verify analyzer against the
// configured overlay, and annotates every diagnostic on its offending
// instruction line. Accepts any artifact the compiler ships:
//
//   * a .ftdlprog program file (save_program / ftdl-program v1): the full
//     semantic verification — the stored stream must agree with the stored
//     mapping re-evaluated on the given overlay;
//   * an InstBUS hex word dump as written by `ftdlc --emit FILE`: one
//     16-hex-digit word per line, `#` comment lines delimit per-layer
//     streams; structural + resource checks only (no mapping available);
//   * a whole-network bundle (save_network / ftdl-network v1): every
//     embedded program is verified per-stream, then the whole-network
//     analyzer (ftdl::analyze) reports the memory/graph-family
//     diagnostics — overlapping tensor ranges, shape breaks, stale or
//     missing programs.
//
//   ftdl-lint FILE [--network] [--json] [--Werror]
//             [--d1 N --d2 N --d3 N] [--clock MHZ] [--quiet]
//
//   --network  require FILE to be a ftdl-network bundle (the format is
//              auto-detected either way; the flag turns a mismatch into an
//              error instead of falling back)
//   --json     machine-readable diagnostics on stdout (ftdl-lint-v1)
//   --Werror   promote warnings to the failing exit status
//
// Exit status: 0 = clean, 1 = error diagnostics (or any diagnostic under
// --Werror), 2 = usage / unreadable input.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "analyze/network_io.h"
#include "arch/isa.h"
#include "arch/overlay_config.h"
#include "common/error.h"
#include "common/file_io.h"
#include "common/str_util.h"
#include "compiler/program_io.h"
#include "compiler/program_verify.h"
#include "obs/obs.h"
#include "verify/verifier.h"

namespace {

using namespace ftdl;

struct Args {
  std::string path;
  arch::OverlayConfig config = arch::paper_config();
  bool quiet = false;
  bool json = false;
  bool warnings_as_errors = false;
  bool require_network = false;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "ftdl-lint: %s\n", msg);
  std::fprintf(stderr,
               "usage: ftdl-lint FILE [--network] [--json] [--Werror]\n"
               "                 [--d1 N --d2 N --d3 N] [--clock MHZ] "
               "[--quiet]\n"
               "  FILE: .ftdlprog artifact, ftdl-network bundle, or "
               "`ftdlc --emit` hex word dump\n");
  std::exit(2);
}

/// Strict positive-integer option parsing (common/str_util): rejects garbage
/// and out-of-range values instead of std::atoi's silent 0.
int parse_pos_int(const char* opt, const char* s) {
  std::int64_t v = 0;
  if (!parse_int_strict(s, 1, 1'000'000, &v)) {
    usage((std::string(opt) + " needs a positive integer, got '" + s + "'")
              .c_str());
  }
  return static_cast<int>(v);
}

double parse_pos_double(const char* opt, const char* s) {
  double v = 0.0;
  if (!parse_double_strict(s, &v) || !(v > 0.0)) {
    usage((std::string(opt) + " needs a positive number, got '" + s + "'")
              .c_str());
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing option value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--d1") == 0) args.config.d1 = parse_pos_int(a, next(i));
    else if (std::strcmp(a, "--d2") == 0) args.config.d2 = parse_pos_int(a, next(i));
    else if (std::strcmp(a, "--d3") == 0) args.config.d3 = parse_pos_int(a, next(i));
    else if (std::strcmp(a, "--clock") == 0) {
      args.config.clocks =
          fpga::ClockPair::from_high(parse_pos_double(a, next(i)) * 1e6);
    } else if (std::strcmp(a, "--quiet") == 0) {
      args.quiet = true;
    } else if (std::strcmp(a, "--json") == 0) {
      args.json = true;
    } else if (std::strcmp(a, "--Werror") == 0) {
      args.warnings_as_errors = true;
    } else if (std::strcmp(a, "--network") == 0) {
      args.require_network = true;
    } else if (a[0] == '-') {
      usage((std::string("unknown option ") + a).c_str());
    } else if (args.path.empty()) {
      args.path = a;
    } else {
      usage("multiple input files given");
    }
  }
  if (args.path.empty()) usage("no input file given");
  return args;
}

/// One diagnostic in the unified report (stream diagnostics carry an
/// instruction index; network diagnostics carry a `where` entity).
struct ReportEntry {
  std::string severity;
  std::string check;
  std::string section;  ///< stream section / program label (may be empty)
  std::string where;    ///< network-level entity (may be empty)
  int index = -1;       ///< instruction index; -1 = not a stream diagnostic
  std::string message;
};

struct Report {
  std::string mode;
  std::vector<ReportEntry> entries;
  int errors = 0;
  int warnings = 0;

  void add_stream(const std::string& section, const verify::VerifyResult& vr) {
    errors += vr.errors();
    warnings += vr.warnings();
    for (const verify::Diagnostic& d : vr.diagnostics) {
      entries.push_back(ReportEntry{verify::to_string(d.severity),
                                    verify::to_string(d.check), section, "",
                                    d.index, d.message});
    }
  }

  void add_network(const analyze::AnalysisResult& ar) {
    errors += ar.errors();
    warnings += ar.warnings();
    for (const analyze::Diagnostic& d : ar.diagnostics) {
      entries.push_back(ReportEntry{verify::to_string(d.severity),
                                    analyze::to_string(d.check), "", d.where,
                                    -1, d.message});
    }
  }
};

void print_json(const Args& args, const Report& report) {
  std::printf("{\n  \"schema\": \"ftdl-lint-v1\",\n  \"file\": \"%s\",\n"
              "  \"mode\": \"%s\",\n  \"diagnostics\": [",
              obs::json_escape(args.path).c_str(), report.mode.c_str());
  bool first = true;
  for (const ReportEntry& e : report.entries) {
    std::printf("%s\n    {\"severity\": \"%s\", \"check\": \"%s\"",
                first ? "" : ",", e.severity.c_str(), e.check.c_str());
    first = false;
    if (!e.section.empty())
      std::printf(", \"section\": \"%s\"", obs::json_escape(e.section).c_str());
    if (!e.where.empty())
      std::printf(", \"where\": \"%s\"", obs::json_escape(e.where).c_str());
    if (e.index >= 0) std::printf(", \"index\": %d", e.index);
    std::printf(", \"message\": \"%s\"}", obs::json_escape(e.message).c_str());
  }
  std::printf("%s],\n  \"errors\": %d,\n  \"warnings\": %d\n}\n",
              report.entries.empty() ? "" : "\n  ", report.errors,
              report.warnings);
}

/// One `#`-delimited stream section of an --emit dump.
struct HexSection {
  std::string label;  ///< text of the introducing comment (may be empty)
  std::vector<std::uint64_t> words;
};

std::vector<HexSection> parse_hex_dump(const std::string& text) {
  std::vector<HexSection> sections;
  std::istringstream in(text);
  std::string line;
  auto current = [&]() -> HexSection& {
    if (sections.empty()) sections.push_back(HexSection{});
    return sections.back();
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      // A comment starts a new per-layer stream (ftdlc --emit format).
      if (!sections.empty() && sections.back().words.empty() &&
          sections.back().label.empty()) {
        sections.back().label = line;
      } else {
        sections.push_back(HexSection{line, {}});
      }
      continue;
    }
    current().words.push_back(arch::parse_word(line));
  }
  return sections;
}

void lint_hex_dump(const std::string& text, const Args& args,
                   Report& report) {
  report.mode = "hex";
  for (const HexSection& sec : parse_hex_dump(text)) {
    if (sec.words.empty()) continue;
    const verify::VerifyResult vr = verify::verify_words(sec.words, args.config);
    report.add_stream(sec.label, vr);
    if (args.json) continue;
    if (!sec.label.empty()) std::printf("%s\n", sec.label.c_str());
    if (!args.quiet || !vr.ok()) {
      std::fputs(verify::annotate(verify::decode_lenient(sec.words), vr).c_str(),
                 stdout);
    }
    std::printf("  -> %d error(s), %d warning(s)\n", vr.errors(), vr.warnings());
  }
}

void lint_program(const std::string& text, const Args& args, Report& report) {
  report.mode = "program";
  compiler::LayerProgram prog = compiler::deserialize_program(text, args.config);
  const verify::VerifyResult vr = compiler::verify_program(prog, args.config);
  const std::string label = "# " + prog.layer.name + " (x" +
                            std::to_string(prog.weight_groups) +
                            " weight groups)";
  report.add_stream(label, vr);
  if (args.json) return;
  std::printf("%s\n", label.c_str());
  if (!args.quiet || !vr.ok()) {
    std::fputs(verify::annotate(prog.row_stream, vr).c_str(), stdout);
  }
  std::printf("  -> %d error(s), %d warning(s)\n", vr.errors(), vr.warnings());
}

void lint_network(const std::string& text, const Args& args, Report& report) {
  report.mode = "network";
  // Per-program verification happens inside the bundle parse (each embedded
  // program re-runs the analytical model + stream verifier, throwing on the
  // first mismatch); the network-level analyzer then reports everything
  // it finds instead of stopping at the first.
  const analyze::ScheduledNetwork sn =
      analyze::parse_network_bundle(text, args.config);
  const analyze::AnalysisResult ar = analyze::analyze_network(sn);
  report.add_network(ar);
  if (args.json) return;
  std::printf("# %s: %zu layers, %zu programs, %llu-word DRAM image\n",
              sn.net.name().c_str(), sn.net.layers().size(),
              sn.schedule.layers.size(),
              static_cast<unsigned long long>(sn.memory.image_words));
  if (!args.quiet || !ar.ok()) std::fputs(ar.to_string().c_str(), stdout);
  std::printf("  -> %d error(s), %d warning(s)\n", ar.errors(), ar.warnings());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::optional<std::string> file = read_file(args.path);
  if (!file) {
    std::fprintf(stderr, "ftdl-lint: cannot open %s\n", args.path.c_str());
    return 2;
  }
  const std::string& text = *file;
  Report report;
  try {
    const bool is_network = text.rfind("ftdl-network", 0) == 0;
    const bool is_program = text.rfind("ftdl-program", 0) == 0;
    if (args.require_network && !is_network)
      throw Error("--network given but the input is not a ftdl-network "
                  "bundle");
    if (is_network) lint_network(text, args, report);
    else if (is_program) lint_program(text, args, report);
    else lint_hex_dump(text, args, report);
  } catch (const Error& e) {
    // Undecodable artifacts (bad format, or an embedded program whose
    // stream disagrees with its mapping) fail before diagnostics exist.
    if (args.json) {
      std::printf("{\n  \"schema\": \"ftdl-lint-v1\",\n  \"file\": \"%s\",\n"
                  "  \"fatal\": \"%s\",\n  \"errors\": 1,\n"
                  "  \"warnings\": 0\n}\n",
                  obs::json_escape(args.path).c_str(),
                  obs::json_escape(e.what()).c_str());
    } else {
      std::printf("FAIL: %s\n", e.what());
    }
    return 1;
  }
  if (args.json) print_json(args, report);
  const bool fail =
      report.errors > 0 || (args.warnings_as_errors && report.warnings > 0);
  return fail ? 1 : 0;
}
