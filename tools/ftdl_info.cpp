// ftdl-info — inspection utility.
//
//   ftdl-info devices                 list the device zoo
//   ftdl-info models                  list the model zoo with Table I stats
//   ftdl-info config D1 D2 D3 DEVICE  validate an overlay shape + timing
//   ftdl-info disasm FILE.hex         disassemble an InstBUS word dump
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>

#include "common/file_io.h"
#include "common/str_util.h"
#include "common/table.h"
#include "ftdl/ftdl.h"
#include "timing/timing_report.h"

namespace {

using namespace ftdl;

int cmd_devices() {
  AsciiTable t({"Device", "Family", "DSPs", "cols x per-col", "BRAM18",
                "CLBs", "DSP fmax", "BRAM fmax"});
  for (const std::string& name : fpga::device_names()) {
    const fpga::Device d = fpga::device_by_name(name);
    t.row({d.name, to_string(d.family), std::to_string(d.total_dsp()),
           strformat("%d x %d", d.dsp_columns, d.dsp_per_column),
           std::to_string(d.total_bram18()), std::to_string(d.clb_count),
           format_hz(d.timing.dsp_fmax_hz), format_hz(d.timing.bram_fmax_hz)});
  }
  t.print();
  return 0;
}

int cmd_models() {
  AsciiTable t({"Model", "Layers", "Overlay layers", "Total ops",
                "CONV/MM/EWOP", "Weights (16b)"});
  auto models = nn::mlperf_models();
  models.push_back(nn::mobilenet_v1());
  for (const nn::Network& net : models) {
    const nn::NetworkStats s = net.stats();
    t.row({net.name(), std::to_string(net.layers().size()),
           std::to_string(net.overlay_layers().size()),
           format_count(double(s.total_ops())),
           strformat("%.2f/%.2f/%.2f%%", 100 * s.conv_fraction(),
                     100 * s.mm_fraction(), 100 * s.ewop_fraction()),
           format_bytes(double(s.weight_bytes()))});
  }
  t.print();
  return 0;
}

/// Strict positional parsing (common/str_util): `ftdl-info config 12 x5 20`
/// is a usage error, never a silent 0.
int parse_dim(const char* what, const char* s) {
  std::int64_t v = 0;
  if (!parse_int_strict(s, 1, 1'000'000, &v)) {
    std::fprintf(stderr, "ftdl-info: %s needs a positive integer, got '%s'\n",
                 what, s);
    std::exit(2);
  }
  return static_cast<int>(v);
}

int cmd_config(int argc, char** argv) {
  if (argc < 6) {
    std::fprintf(stderr, "usage: ftdl-info config D1 D2 D3 DEVICE\n");
    return 2;
  }
  arch::OverlayConfig cfg = arch::paper_config();
  cfg.d1 = parse_dim("D1", argv[2]);
  cfg.d2 = parse_dim("D2", argv[3]);
  cfg.d3 = parse_dim("D3", argv[4]);
  const fpga::Device dev = fpga::device_by_name(argv[5]);
  try {
    timing::OverlayGeometry g;
    g.d1 = cfg.d1;
    g.d2 = cfg.d2;
    g.d3 = cfg.d3;
    std::fputs(timing::render_timing_report(dev, g, cfg.clocks).c_str(),
               stdout);
    cfg.validate_for_device(dev);
    std::printf("\n%s fits %s.\n", cfg.to_string().c_str(), dev.name.c_str());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "invalid: %s\n", e.what());
    return 1;
  }
}

int cmd_disasm(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: ftdl-info disasm FILE.hex\n");
    return 2;
  }
  const std::optional<std::string> text = read_file(argv[2]);
  if (!text) {
    std::fprintf(stderr, "cannot open %s\n", argv[2]);
    return 1;
  }
  std::istringstream in(*text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      std::printf("%s\n", line.c_str());
      continue;
    }
    try {
      const arch::Instruction inst = arch::decode(arch::parse_word(line));
      std::printf("%s    %s\n", line.c_str(), inst.to_string().c_str());
    } catch (const Error& e) {
      std::printf("%s    <malformed: %s>\n", line.c_str(), e.what());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: ftdl-info devices|models|config|disasm ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "devices") return cmd_devices();
  if (cmd == "models") return cmd_models();
  if (cmd == "config") return cmd_config(argc, argv);
  if (cmd == "disasm") return cmd_disasm(argc, argv);
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}
