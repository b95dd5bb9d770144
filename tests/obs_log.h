// Test helper: records a block of instrumented code through an
// ftdl-stream-v1 log, the one place obs spans are kept, and returns the log
// replayed into tracks, events and metrics.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>

#include "obs/obs.h"
#include "obs/stream_reader.h"

namespace ftdl {

/// A log path no other record_log call in any running test uses.
inline std::string temp_log_path() {
  static std::atomic<int> serial{0};
  return (std::filesystem::temp_directory_path() /
          ("ftdl_obs_" + std::to_string(::getpid()) + "_" +
           std::to_string(serial++) + ".stream"))
      .string();
}

/// Enables obs with a log in a temp file, runs `body`, disables obs (which
/// detaches and finishes the log) and returns reconstruct(load_stream(log)).
/// The log must pass check_log: contiguous sequences, and on every track
/// balanced, nesting spans with monotonic timestamps.
template <typename Body>
obs::stream::ReconstructedLog record_log(Body&& body) {
  const std::string path = temp_log_path();
  obs::set_enabled(true, path);
  body();
  obs::set_enabled(false);
  const obs::stream::LoadedLog log = obs::stream::load_stream(path);
  std::filesystem::remove(path);
  const obs::stream::CheckReport report = obs::stream::check_log(log);
  EXPECT_TRUE(report.ok()) << report.to_string();
  return obs::stream::reconstruct(log);
}

}  // namespace ftdl
