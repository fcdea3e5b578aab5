// Small string helpers used by the report/gen layers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/vtime.hpp"

namespace ats {

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Pads/truncates `s` to exactly `width` characters (left aligned).
std::string pad_right(std::string_view s, std::size_t width);

/// Pads `s` on the left to at least `width` characters.
std::string pad_left(std::string_view s, std::size_t width);

/// printf-style double with fixed precision.
std::string fmt_double(double v, int precision = 3);

/// Appends `d` as seconds with nine decimals ("-1.000000001"), formatted
/// from its integer nanoseconds.  Byte-identical to fmt_double(d.sec(), 9)
/// while |ns| < 2^50 (~13 days): there the double product errs by at most
/// 2.5e-10 s, under half the last printed digit.  Beyond that bound it
/// falls back to fmt_double, so the output never depends on the path.
void append_seconds(std::string& out, VDur d);

/// Percent rendering ("12.3%"); `frac` is a fraction of one.
std::string fmt_percent(double frac, int precision = 1);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Repeats character `c` `n` times.
std::string repeat(char c, std::size_t n);

}  // namespace ats
