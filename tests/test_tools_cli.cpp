// End-to-end CLI tests driving the real tool binaries as child processes:
// strict flag parsing (a bad numeric flag must exit 2 with a diagnostic,
// never run with a silent 0), and the persistent program cache's
// cross-process behavior — compile in one ftdlc process, warm-load in the
// next, evict-and-recompile after on-disk corruption.
//
// Tool paths and the example spec directory are injected by CMake via
// FTDL_*_PATH compile definitions (tests/CMakeLists.txt).
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;  ///< merged stdout+stderr
};

/// Runs `cmd` via popen with stderr folded into stdout.
RunResult run(const std::string& cmd) {
  RunResult r;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "ftdl_cli_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    EXPECT_NE(mkdtemp(buf.data()), nullptr);
    path = buf.data();
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

const std::string kSpec = std::string(FTDL_EXAMPLES_DIR) + "/specs/lenet.ftdl";

// ---- strict flag parsing: garbage must exit 2, never run as 0 -------------

TEST(ToolsCli, FtdlcRejectsGarbageNumericFlags) {
  for (const char* flags :
       {"--jobs x8", "--d1 12q", "--budget 1e4", "--clock fast",
        "--jobs 0"}) {
    const RunResult r = run(std::string(FTDL_FTDLC_PATH) + " " + kSpec + " " +
                            flags);
    EXPECT_EQ(r.exit_code, 2) << flags << "\n" << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << flags;
  }
}

TEST(ToolsCli, FtdlcRejectsMalformedSpecInput) {
  // `input C H W` takes exactly three whole positive integers: a spec with
  // a junk-suffixed or missing extent is a spec error (exit 1), not a
  // 1x28x28 network.
  TempDir dir;
  for (const char* input : {"input 1 28 28x", "input 1 28"}) {
    const std::string spec = dir.path + "/bad.ftdl";
    std::ofstream(spec) << "network bad\n"
                        << input << "\nconv c1 out=6 k=5 pad=2\n";
    const RunResult r = run(std::string(FTDL_FTDLC_PATH) + " " + spec);
    EXPECT_EQ(r.exit_code, 1) << input << "\n" << r.output;
    EXPECT_NE(r.output.find("input C H W"), std::string::npos) << r.output;
  }
}

TEST(ToolsCli, FtdlServeRejectsGarbageNumericFlags) {
  for (const char* flags :
       {"--workers x8", "--requests 4x", "--rate fast", "--batch 0"}) {
    const RunResult r = run(std::string(FTDL_SERVE_PATH) + " " + flags);
    EXPECT_EQ(r.exit_code, 2) << flags << "\n" << r.output;
  }
}

TEST(ToolsCli, FtdlServeReportsWarmUpFailureAndExitsOne) {
  // The server warms seqLSTM up before admitting a request; the warm-up's
  // ConfigError (recurrent layers) goes to stderr and the tool exits 1.
  // Only stderr reaches the pipe: stdout is discarded inside the group.
  TempDir dir;
  const RunResult r = run("cd " + dir.path + " && { " +
                          std::string(FTDL_SERVE_PATH) +
                          " Sentimental-seqLSTM 2>&1 >/dev/null; }");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("ftdl-serve: "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("not executable feed-forward"), std::string::npos)
      << r.output;
}

TEST(ToolsCli, FtdlServeCheckReplaysBitIdentical) {
  // --check replays every request on a one-worker server and compares the
  // outputs of the concurrent run bit for bit.
  TempDir dir;
  const RunResult r = run("cd " + dir.path + " && " +
                          std::string(FTDL_SERVE_PATH) +
                          " --requests 8 --workers 4 --check");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("check: 8 outputs bit-identical"), std::string::npos)
      << r.output;
  // There is one execution path, so there is no flag to pick it.
  EXPECT_EQ(run(std::string(FTDL_SERVE_PATH) + " --path sim").exit_code, 2);
}

TEST(ToolsCli, FtdlProfRejectsGarbageNumericFlags) {
  for (const char* flags : {"--jobs x8", "--budget 8k", "--sim-macs-limit -1",
                            "--jobs 0"}) {
    const RunResult r = run(std::string(FTDL_PROF_PATH) + " " + flags);
    EXPECT_EQ(r.exit_code, 2) << flags << "\n" << r.output;
  }
}

// The search budget moves modeled FPS, so a profile must say which it used.
TEST(ToolsCli, FtdlProfReportsSearchBudget) {
  TempDir out;
  const RunResult r =
      run(std::string(FTDL_PROF_PATH) + " Sentimental-seqCNN --no-sim " +
          "--budget 1500 --trace " + out.path + "/trace.json --metrics " +
          out.path + "/metrics.json");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("(search budget 1500 per layer)"), std::string::npos)
      << r.output;
}

TEST(ToolsCli, FtdlInfoRejectsGarbageConfigDims) {
  for (const char* dims : {"x12 5 20", "12 5x 20", "12 5 0"}) {
    const RunResult r = run(std::string(FTDL_INFO_PATH) + " config " +
                            std::string(dims) + " xcvu125");
    EXPECT_EQ(r.exit_code, 2) << dims << "\n" << r.output;
  }
}

TEST(ToolsCli, FtdlLintRejectsGarbageNumericFlags) {
  const RunResult r =
      run(std::string(FTDL_LINT_PATH) + " nonexistent.hex --d1 x12");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

// A malformed value in a program artifact is a lint failure (exit 1 with a
// FAIL: line), not an uncaught std::invalid_argument (exit 134).
TEST(ToolsCli, FtdlLintRejectsMalformedProgram) {
  TempDir dir;
  std::ifstream in(std::string(FTDL_GOLDEN_DIR) + "/program_split.ftdlprog");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t at = text.find("\ngroups=");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, text.find('\n', at + 1) - at, "\ngroups=abc");
  const std::string path = dir.path + "/bad.ftdlprog";
  std::ofstream(path) << text;

  const RunResult r = run(std::string(FTDL_LINT_PATH) + " " + path);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("FAIL: ftdl-program: groups:"), std::string::npos)
      << r.output;
}

// ---- cross-process persistent cache ---------------------------------------

TEST(ToolsCli, FtdlcWarmStartsFromAnotherProcessesCache) {
  TempDir cache;
  const std::string base = std::string(FTDL_FTDLC_PATH) + " " + kSpec +
                           " --quiet --cache-dir " + cache.path;

  const RunResult cold = run(base);
  ASSERT_EQ(cold.exit_code, 0) << cold.output;
  EXPECT_NE(cold.output.find("disk_hits=0"), std::string::npos) << cold.output;
  EXPECT_EQ(cold.output.find("disk_misses=0"), std::string::npos)
      << "cold run must probe-miss: " << cold.output;

  // Entries were published; a second process compiles nothing.
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(cache.path)) {
    EXPECT_EQ(e.path().extension(), ".ftdlprog") << e.path();
    ++entries;
  }
  ASSERT_GT(entries, 0u);

  const RunResult warm = run(base);
  ASSERT_EQ(warm.exit_code, 0) << warm.output;
  EXPECT_NE(warm.output.find("disk_hits=" + std::to_string(entries)),
            std::string::npos)
      << warm.output;
  EXPECT_NE(warm.output.find("disk_misses=0"), std::string::npos)
      << warm.output;
}

TEST(ToolsCli, FtdlcEvictsCorruptedEntriesAndRecompiles) {
  TempDir cache;
  const std::string base = std::string(FTDL_FTDLC_PATH) + " " + kSpec +
                           " --quiet --cache-dir " + cache.path;
  ASSERT_EQ(run(base).exit_code, 0);

  // Truncate one published entry.
  const auto it = fs::directory_iterator(cache.path);
  ASSERT_NE(it, fs::directory_iterator{});
  const std::string victim = it->path().string();
  fs::resize_file(victim, fs::file_size(victim) / 2);

  const RunResult r = run(base);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("disk_evictions=1"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("disk_misses=1"), std::string::npos) << r.output;

  // The eviction recompiled and republished: a third run is fully warm.
  const RunResult again = run(base);
  EXPECT_NE(again.output.find("disk_misses=0"), std::string::npos)
      << again.output;
  EXPECT_NE(again.output.find("disk_evictions=0"), std::string::npos)
      << again.output;
}

TEST(ToolsCli, FtdlcHonorsCacheDirEnvVar) {
  TempDir cache;
  const RunResult r = run("FTDL_CACHE_DIR=" + cache.path + " " +
                          std::string(FTDL_FTDLC_PATH) + " " + kSpec +
                          " --quiet");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("cache " + cache.path), std::string::npos)
      << r.output;
  EXPECT_GT(std::distance(fs::directory_iterator(cache.path),
                          fs::directory_iterator{}),
            0);
}

// Warm-disk output must be byte-identical to a cacheless run (modulo the
// extra cache-stats line): the schedule table, roll-ups and analysis all
// come from the same programs whether compiled or loaded.
TEST(ToolsCli, WarmDiskOutputMatchesCachelessRun) {
  TempDir cache;
  const std::string cacheless_cmd =
      std::string(FTDL_FTDLC_PATH) + " " + kSpec;
  const std::string cached_cmd = cacheless_cmd + " --cache-dir " + cache.path;

  const RunResult cacheless = run(cacheless_cmd);
  ASSERT_EQ(cacheless.exit_code, 0);
  ASSERT_EQ(run(cached_cmd).exit_code, 0);  // populate
  const RunResult warm = run(cached_cmd);
  ASSERT_EQ(warm.exit_code, 0);

  // Strip the cache-stats line from the warm output; the rest must match.
  std::string warm_stripped;
  std::istringstream in(warm.output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cache ", 0) == 0) continue;
    warm_stripped += line + "\n";
  }
  EXPECT_EQ(warm_stripped, cacheless.output);
}

}  // namespace
