// Whole-file reads and checked, atomic writes: the one reader and the one
// writer behind every artifact the toolchain loads or saves (programs,
// network bundles, store entries, traces, RTL, instruction dumps).
#pragma once

#include <optional>
#include <string>

namespace ftdl {

/// The whole contents of `path`, or nullopt when it cannot be opened or
/// read (missing file, directory, permissions, I/O error).
std::optional<std::string> read_file(const std::string& path);

/// Writes `bytes` to `path`. A regular file (or a new one) is written to a
/// unique temp file beside it, flushed and checked, then renamed into
/// place, so the final name never holds a half-written file. A target that
/// exists and is not a regular file (a device such as /dev/full, a FIFO, a
/// symlink such as /dev/stdout) is written in place with the same flush
/// check, so a rename never replaces it. Throws ftdl::Error naming the path
/// when anything fails (no directory, permissions, disk full).
void write_file_atomic(const std::string& path, const std::string& bytes);

}  // namespace ftdl
