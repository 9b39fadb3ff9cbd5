// Small string helpers shared across modules.
#ifndef FUZZYDB_COMMON_STRING_UTIL_H_
#define FUZZYDB_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fuzzydb {

/// Lower-cases ASCII characters; other bytes pass through unchanged.
std::string ToLower(const std::string& s);

/// Upper-cases ASCII characters; other bytes pass through unchanged.
std::string ToUpper(const std::string& s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(const std::string& a, const std::string& b);

/// Formats a double compactly: integers without trailing ".0", otherwise up
/// to `precision` significant digits.
std::string FormatDouble(double v, int precision = 6);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

// Parsers for numeric settings (SET values and command-line flags).
// Each reads the whole string and returns false, leaving *out alone,
// on anything it cannot represent exactly.

/// A non-negative decimal integer: digits only, no sign or whitespace.
/// False when malformed or past 2^64 - 1.
bool ParseCount(const std::string& text, uint64_t* out);

/// A byte count with an optional k, m or g suffix (KiB, MiB, GiB; either
/// case), so "64m" is 64 MiB. False when malformed or past 2^64 - 1.
bool ParseByteSize(const std::string& text, uint64_t* out);

/// A finite, non-negative number of milliseconds ("250", "5.5", "1e3").
/// False when malformed, negative, infinite or NaN.
bool ParseMillis(const std::string& text, double* out);

}  // namespace fuzzydb

#endif  // FUZZYDB_COMMON_STRING_UTIL_H_
