// String formatting helpers for reports and benches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ftdl {

/// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// "650.0 MHz", "1.23 GHz" from a frequency in Hz.
std::string format_hz(double hz);

/// "13.7 MB", "345.1 KB" from a byte count.
std::string format_bytes(double bytes);

/// "3.14 G", "27.5 M" SI-ish count formatting.
std::string format_count(double n);

/// "81.1%" from a ratio in [0,1].
std::string format_percent(double ratio, int decimals = 1);

/// Join a vector of int64 as "a x b x c".
std::string join_x(const std::vector<std::int64_t>& v);

/// Join strings with `sep` between them: join({"a", "b"}, ", ") == "a, b".
std::string join(const std::vector<std::string>& parts, const char* sep);

/// Strict base-10 integer parsing for CLI flags: the whole string must be a
/// number in [min_v, max_v] — garbage, trailing text, empty input and
/// overflow all return false (std::atoi silently returns 0 for all four).
/// `*out` is written only on success.
bool parse_int_strict(const char* s, std::int64_t min_v, std::int64_t max_v,
                      std::int64_t* out);

/// Strict decimal parsing for CLI flags: the whole string must be a finite
/// number. `*out` is written only on success.
bool parse_double_strict(const char* s, double* out);

}  // namespace ftdl
