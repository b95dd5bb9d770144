#include "compiler/program_store.h"

#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/error.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "obs/obs.h"

namespace ftdl::compiler {

namespace {

namespace fs = std::filesystem;

/// Bumped whenever the entry layout (header/footer grammar, payload
/// framing) changes; older entries then evict-and-recompile instead of
/// being misparsed. The payload itself carries its own `ftdl-program`
/// version on top.
constexpr int kStoreVersion = 1;

constexpr const char* kEntryExtension = ".ftdlprog";

std::uint64_t payload_checksum(const std::string& payload) {
  Hash64 h;
  h.bytes(payload.data(), payload.size());
  return h.digest();
}

std::string header_line(std::uint64_t key, const arch::OverlayConfig& config) {
  return strformat("ftdl-store v%d config=%016llx key=%016llx\n", kStoreVersion,
                   static_cast<unsigned long long>(overlay_config_digest(config)),
                   static_cast<unsigned long long>(key));
}

std::string footer_line(const std::string& payload) {
  return strformat("footer bytes=%llu checksum=%016llx\n",
                   static_cast<unsigned long long>(payload.size()),
                   static_cast<unsigned long long>(payload_checksum(payload)));
}

}  // namespace

Hash64& hash_overlay_config(Hash64& h, const arch::OverlayConfig& config) {
  // Every field the analytical model or codegen can read, in the key's
  // canonical order (session.cpp hashed these inline before the store
  // existed — the order must never change without bumping the key salt).
  h.i32(config.d1).i32(config.d2).i32(config.d3);
  h.i64(config.actbuf_words).i64(config.wbuf_words).i64(config.psumbuf_words);
  h.i32(config.actbus_words_per_cycle).i32(config.psumbus_words_per_cycle);
  h.f64(config.dram_rd_bytes_per_sec).f64(config.dram_wr_bytes_per_sec);
  h.i32(config.psum_bytes);
  h.f64(config.clocks.clk_l_hz).f64(config.clocks.clk_h_hz);
  h.boolean(config.double_pump);
  h.boolean(config.charge_weight_reload);
  return h;
}

std::uint64_t overlay_config_digest(const arch::OverlayConfig& config) {
  Hash64 h;
  return hash_overlay_config(h, config).digest();
}

ProgramStore::ProgramStore(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) throw Error("program store: empty cache directory");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw Error("program store: cannot create cache directory " + dir_ +
                (ec ? ": " + ec.message() : ""));
  }
}

std::string ProgramStore::entry_path(std::uint64_t key) const {
  return dir_ + "/" +
         strformat("%016llx%s", static_cast<unsigned long long>(key),
                   kEntryExtension);
}

void ProgramStore::evict(std::uint64_t key, const std::string& why) {
  std::error_code ec;
  fs::remove(entry_path(key), ec);  // best effort; a racing evict is fine
  log_warn(strformat("program store: evicting %s: %s",
                     entry_path(key).c_str(), why.c_str()));
  {
    MutexLock lock(mu_);
    ++stats_.evictions;
  }
  obs::count("session/disk_evictions");
}

std::optional<LayerProgram> ProgramStore::load(
    std::uint64_t key, const arch::OverlayConfig& config) {
  const std::optional<std::string> file = read_file(entry_path(key));
  if (!file) {
    MutexLock lock(mu_);
    ++stats_.misses;
    obs::count("session/disk_misses");
    return std::nullopt;
  }

  // A present-but-invalid entry is evicted and reported as a miss — callers
  // recompile; a wrong program is never returned. Integrity is checked
  // outside-in: header (format + provenance), footer (truncation), checksum
  // (bit rot), then the full semantic re-validation in deserialize_program.
  const auto invalid = [&](const std::string& why) -> std::optional<LayerProgram> {
    evict(key, why);
    MutexLock lock(mu_);
    ++stats_.misses;
    obs::count("session/disk_misses");
    return std::nullopt;
  };

  const std::string& text = *file;
  const std::size_t header_end = text.find('\n');
  if (header_end == std::string::npos) return invalid("no header line");
  if (text.substr(0, header_end) + "\n" != header_line(key, config)) {
    return invalid("header/version/config mismatch");
  }

  // The footer is the last line; everything between header and footer is
  // the payload. A file that lost its tail has no footer and fails here.
  const std::size_t footer_start = text.rfind("\nfooter ");
  if (footer_start == std::string::npos || footer_start < header_end) {
    return invalid("no footer (truncated entry)");
  }
  const std::string payload =
      text.substr(header_end + 1, footer_start + 1 - (header_end + 1));
  if (text.substr(footer_start + 1) != footer_line(payload)) {
    return invalid("footer length/checksum mismatch (corrupted entry)");
  }

  LayerProgram prog;
  try {
    prog = deserialize_program(payload, config);
  } catch (const Error& e) {
    return invalid(std::string("stored program failed re-validation: ") +
                   e.what());
  }

  {
    MutexLock lock(mu_);
    ++stats_.hits;
    stats_.bytes_read += static_cast<std::int64_t>(text.size());
  }
  obs::count("session/disk_hits");
  return prog;
}

void ProgramStore::put(std::uint64_t key, const arch::OverlayConfig& config,
                       const LayerProgram& program) {
  const std::string payload = serialize_program(program);
  const std::string content =
      header_line(key, config) + payload + footer_line(payload);

  try {
    write_file_atomic(entry_path(key), content);
  } catch (const Error& e) {
    throw Error(std::string("program store: ") + e.what());
  }

  {
    MutexLock lock(mu_);
    stats_.bytes_written += static_cast<std::int64_t>(content.size());
  }
  obs::count("session/disk_bytes", static_cast<std::int64_t>(content.size()));
}

std::int64_t ProgramStore::entry_count() const {
  std::int64_t n = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (e.path().extension() == kEntryExtension) ++n;
  }
  return n;
}

StoreStats ProgramStore::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::string resolve_cache_dir(const std::string& flag_value) {
  if (!flag_value.empty()) return flag_value;
  const char* env = std::getenv("FTDL_CACHE_DIR");
  return env ? env : "";
}

}  // namespace ftdl::compiler
