// ProgramStore — persistent, content-addressed, cross-process LayerProgram
// storage (the on-disk tier below CompilerSession's in-memory cache).
//
// FTDL's scalability story (Sec. II) is that the overlay bitstream never
// changes — only the controller instruction streams do — so compiled
// programs are small, deployable artifacts. The in-memory session cache
// dies with the process, which made every `ftdl-serve` / `ftdl-prof`
// restart recompile the whole zoo from scratch. The store keeps those
// artifacts on disk, keyed by the same `program_cache_key` content hash, so
// a fleet of processes sharing one `--cache-dir` warm-starts in
// milliseconds instead of re-running the mapping search.
//
// Entry format (one file per key, `<key>.ftdlprog` in the store directory):
//
//   ftdl-store v1 config=<16-hex digest> key=<16-hex key>      (header)
//   <serialize_program text — the already-versioned artifact>  (payload)
//   footer bytes=<payload size> checksum=<16-hex FNV-1a>       (footer)
//
// The header pins the store format version and the overlay-config digest
// (belt and braces on top of the config's presence in the key); the footer
// makes truncation detectable — a file missing its footer, or whose payload
// disagrees with the recorded length or checksum, is corrupt by definition.
//
// Durability contract:
//   * Publication is ATOMIC: entries are written to a unique temp file in
//     the store directory and renamed into place, so concurrent writers and
//     crashed processes can never leave a half-written entry visible under
//     its final name. Racing writers of one key both publish identical
//     content (the key is a content hash of the full compilation input);
//     last rename wins.
//   * Loads NEVER trust the disk: after the header/footer integrity checks,
//     the payload goes through `deserialize_program`, which re-evaluates
//     the analytical model on the stored mapping and statically verifies
//     the stored stream against it. A corrupted, stale, tampered or
//     wrong-version entry is EVICTED (the file is removed) and reported as
//     a miss — the caller recompiles; a wrong schedule is never returned.
//
// Obs counters (docs/observability.md): session/disk_hits,
// session/disk_misses, session/disk_evictions, session/disk_bytes, plus
// session/disk_write_failures from the session's write-through path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "compiler/program_io.h"

namespace ftdl::compiler {

/// Cumulative traffic of one ProgramStore instance. Shared by every session
/// attached to the same instance; a separate instance on the same directory
/// (another process, or another in-process store object) keeps its own.
struct StoreStats {
  std::int64_t hits = 0;           ///< entries loaded and fully re-validated
  std::int64_t misses = 0;         ///< probes that found no entry
  std::int64_t evictions = 0;      ///< corrupt/stale entries removed on load
  std::int64_t bytes_written = 0;  ///< entry bytes published by this instance
  std::int64_t bytes_read = 0;     ///< entry bytes of successful loads
};

/// Feeds every OverlayConfig field into `h` in the store/key canonical
/// order. Shared by `program_cache_key` and the entry-header digest so the
/// two can never drift apart.
Hash64& hash_overlay_config(Hash64& h, const arch::OverlayConfig& config);

/// 64-bit digest of every OverlayConfig field (the entry-header `config=`
/// value).
std::uint64_t overlay_config_digest(const arch::OverlayConfig& config);

class ProgramStore {
 public:
  /// Opens the store rooted at `dir`, creating the directory (and parents)
  /// if needed. Throws ftdl::Error when the directory cannot be created.
  explicit ProgramStore(std::string dir);
  ProgramStore(const ProgramStore&) = delete;
  ProgramStore& operator=(const ProgramStore&) = delete;

  const std::string& dir() const { return dir_; }

  /// Probes the store for `key`. A valid entry is re-validated end to end
  /// (header, footer, checksum, then `deserialize_program` against
  /// `config`) and returned; a missing entry returns nullopt; a corrupted,
  /// truncated, wrong-version or config-mismatched entry is evicted and
  /// nullopt is returned.
  std::optional<LayerProgram> load(std::uint64_t key,
                                   const arch::OverlayConfig& config);

  /// Publishes `program` under `key` via write_file_atomic (temp file +
  /// atomic rename, common/file_io.h). Throws
  /// ftdl::Error when the entry cannot be written (disk full, permissions);
  /// the final path is never left half-written.
  void put(std::uint64_t key, const arch::OverlayConfig& config,
           const LayerProgram& program);

  /// Final on-disk path of `key`'s entry.
  std::string entry_path(std::uint64_t key) const;

  /// Number of published entries currently in the directory.
  std::int64_t entry_count() const;

  StoreStats stats() const;

 private:
  void evict(std::uint64_t key, const std::string& why);

  std::string dir_;
  mutable Mutex mu_;
  StoreStats stats_ FTDL_GUARDED_BY(mu_);
};

/// Cache-directory resolution shared by the tools: the `--cache-dir` flag
/// value when non-empty, else the FTDL_CACHE_DIR environment variable, else
/// "" (persistent caching disabled).
std::string resolve_cache_dir(const std::string& flag_value);

}  // namespace ftdl::compiler
