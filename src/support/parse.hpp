// Checked text-to-number parsing for command-line flags.
//
// Bare std::stoull throws on garbage and silently wraps "-1" to 2^64-1;
// std::strtoull turns "abc" into 0. Flag parsers use these helpers instead:
// strict syntax, overflow rejected, nullopt on any failure, so the caller
// can name the offending flag and exit with its usage code.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace avglocal::support {

/// Parses a decimal unsigned 64-bit integer: digits only (no sign, no
/// whitespace), non-empty, no overflow.
inline std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace avglocal::support
