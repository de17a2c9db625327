// Small string helpers shared across modules.
#ifndef ERLB_COMMON_STRING_UTIL_H_
#define ERLB_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace erlb {

/// ASCII-lowercases `s`.
std::string ToLowerAscii(std::string_view s);

/// Strips leading/trailing ASCII whitespace.
std::string_view TrimAscii(std::string_view s);

/// Splits `s` on `delim`; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// First `n` characters of `s` (fewer if `s` is shorter), lowercased.
/// This is the paper's default blocking key ("first three letters of the
/// title") for n = 3.
std::string PrefixKey(std::string_view s, size_t n);

/// FNV-1a 64-bit hash, used by the Basic strategy's default partitioner
/// (deterministic across platforms, unlike std::hash).
uint64_t Fnv1a64(std::string_view s);

/// Formats `v` with thousands separators, e.g. 1234567 -> "1,234,567".
std::string FormatWithCommas(uint64_t v);

/// Formats a double with fixed `digits` decimals.
std::string FormatDouble(double v, int digits);

}  // namespace erlb

#endif  // ERLB_COMMON_STRING_UTIL_H_
