#include "common/strutil.hpp"

#include <cstdio>

namespace ats {

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string pad_right(std::string_view s, std::size_t width) {
  std::string out(s.substr(0, width));
  out.resize(width, ' ');
  return out;
}

std::string pad_left(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(width - s.size(), ' ') + std::string(s);
}

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

void append_seconds(std::string& out, VDur d) {
  constexpr std::int64_t kExact = std::int64_t{1} << 50;
  const std::int64_t ns = d.ns();
  if (ns <= -kExact || ns >= kExact) {
    out += fmt_double(d.sec(), 9);
    return;
  }
  std::uint64_t whole = static_cast<std::uint64_t>(ns < 0 ? -ns : ns);
  std::uint64_t frac = whole % 1'000'000'000;
  whole /= 1'000'000'000;
  char buf[32];  // '-' + at most 7 whole digits + '.' + 9 decimals
  char* const end = buf + sizeof buf;
  char* p = end;
  for (int i = 0; i < 9; ++i, frac /= 10) {
    *--p = static_cast<char>('0' + frac % 10);
  }
  *--p = '.';
  do {
    *--p = static_cast<char>('0' + whole % 10);
    whole /= 10;
  } while (whole != 0);
  if (ns < 0) *--p = '-';
  out.append(p, end);
}

std::string fmt_percent(double frac, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, frac * 100.0);
  return buf;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string repeat(char c, std::size_t n) { return std::string(n, c); }

}  // namespace ats
