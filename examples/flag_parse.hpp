// Checked numeric flag parsing shared by the gemfi CLIs.
//
// The raw strtoul idiom silently turns `--port=notaport` into 0 and carries
// on; these helpers abort with exit code 2 and a message naming the
// offending flag instead, so a typo dies at the command line rather than as
// a bind to port 0 or a campaign of zero experiments.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace gemfi::cliflags {

[[noreturn]] inline void bad_value(const char* flag, const std::string& text) {
  std::fprintf(stderr, "invalid numeric value for --%s: '%s'\n", flag,
               text.c_str());
  std::exit(2);
}

inline std::uint64_t parse_u64_flag(const char* flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno == ERANGE)
    bad_value(flag, text);
  return v;
}

inline unsigned parse_u32_flag(const char* flag, const std::string& text) {
  const std::uint64_t v = parse_u64_flag(flag, text);
  if (v > ~0u) bad_value(flag, text);
  return unsigned(v);
}

inline std::uint16_t parse_u16_flag(const char* flag, const std::string& text) {
  const std::uint64_t v = parse_u64_flag(flag, text);
  if (v > 0xffffu) bad_value(flag, text);
  return std::uint16_t(v);
}

/// A count of at least 1 (and at most `max`). Zero exits 2 naming the flag:
/// a CLI that took it would read "a count of nothing" as "flag absent".
inline std::uint64_t parse_count_flag(const char* flag, const std::string& text,
                                      std::uint64_t max = ~0u) {
  const std::uint64_t v = parse_u64_flag(flag, text);
  if (v > max) bad_value(flag, text);
  if (v == 0) {
    std::fprintf(stderr, "--%s must be at least 1\n", flag);
    std::exit(2);
  }
  return v;
}

inline double parse_f64_flag(const char* flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno == ERANGE) bad_value(flag, text);
  return v;
}

}  // namespace gemfi::cliflags
