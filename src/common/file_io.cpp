#include "common/file_io.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/error.h"
#include "common/str_util.h"

namespace ftdl {

namespace {

/// Writes and closes `path`; a short write or a failed flush or close
/// (where a full disk shows up) throws.
void write_checked(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw Error(std::strerror(errno));
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
            std::fflush(f) == 0;
  const int err = errno;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) throw Error(std::strerror(err != 0 ? err : errno));
}

}  // namespace

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string out;
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;)
    out.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return std::nullopt;
  return out;
}

void write_file_atomic(const std::string& path, const std::string& bytes) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::file_status st = fs::symlink_status(path, ec);
  try {
    if (fs::exists(st) && !fs::is_regular_file(st))
      return write_checked(path, bytes);
    // Unique per (process, call): concurrent writers of one path never
    // share a temp file, and a crashed writer leaves only a stray .tmp.
    static std::atomic<std::uint64_t> seq{0};
    const std::string temp = strformat(
        "%s.tmp.%d.%llu", path.c_str(), static_cast<int>(::getpid()),
        static_cast<unsigned long long>(seq.fetch_add(1)));
    try {
      write_checked(temp, bytes);
      fs::rename(temp, path);
    } catch (const std::exception&) {
      fs::remove(temp, ec);
      throw;
    }
  } catch (const std::exception& e) {
    throw Error("cannot write " + path + ": " + e.what());
  }
}

}  // namespace ftdl
