// Umbrella header: the FTDL framework public API.
//
// Typical use (see examples/quickstart.cpp):
//
//   ftdl::FrameworkOptions opts;                 // vu125 + Table II config
//   ftdl::Framework fw(opts);
//   ftdl::NetworkReport r = fw.evaluate(ftdl::nn::googlenet());
//   printf("%.1f FPS at %.1f GOPS/W\n", r.fps(), r.gops_per_w);
#pragma once

#include "arch/isa.h"                  // IWYU pragma: export
#include "arch/overlay_config.h"       // IWYU pragma: export
#include "baseline/prior_work.h"       // IWYU pragma: export
#include "compiler/codegen.h"          // IWYU pragma: export
#include "compiler/scheduler.h"        // IWYU pragma: export
#include "compiler/search.h"           // IWYU pragma: export
#include "dram/dram_power.h"           // IWYU pragma: export
#include "dse/explorer.h"              // IWYU pragma: export
#include "fpga/device_zoo.h"           // IWYU pragma: export
#include "ftdl/framework.h"            // IWYU pragma: export
#include "host/host_pipeline.h"        // IWYU pragma: export
#include "host/lstm_runner.h"          // IWYU pragma: export
#include "multifpga/partition.h"       // IWYU pragma: export
#include "nn/model_zoo.h"              // IWYU pragma: export
#include "nn/reference.h"              // IWYU pragma: export
#include "power/fpga_power.h"          // IWYU pragma: export
#include "prune/channel_prune.h"       // IWYU pragma: export
#include "quant/quantize.h"            // IWYU pragma: export
#include "roofline/roofline.h"         // IWYU pragma: export
#include "rtlgen/testbench_gen.h"      // IWYU pragma: export
#include "rtlgen/verilog_gen.h"        // IWYU pragma: export
#include "runtime/executor.h"          // IWYU pragma: export
#include "sim/ftdl_sim.h"              // IWYU pragma: export
#include "timing/scaling_study.h"      // IWYU pragma: export
#include "winograd/winograd.h"         // IWYU pragma: export
