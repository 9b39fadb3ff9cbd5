#include "common/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace fuzzydb {

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string FormatDouble(double v, int precision) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

std::string Join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool ParseCount(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseByteSize(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  int shift = 0;
  switch (std::tolower(static_cast<unsigned char>(text.back()))) {
    case 'k':
      shift = 10;
      break;
    case 'm':
      shift = 20;
      break;
    case 'g':
      shift = 30;
      break;
  }
  uint64_t count = 0;
  const std::string digits = text.substr(0, text.size() - (shift != 0));
  if (!ParseCount(digits, &count) || count > (UINT64_MAX >> shift)) {
    return false;
  }
  *out = count << shift;
  return true;
}

bool ParseMillis(const std::string& text, double* out) {
  // strtod also reads signs, spaces, "inf" and "nan"; a number starts
  // with a digit or a point.
  if (text.empty() ||
      !(std::isdigit(static_cast<unsigned char>(text[0])) || text[0] == '.')) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace fuzzydb
