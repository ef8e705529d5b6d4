#include "common/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace eva {

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

std::string ToUpper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(c));
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::string PercentEscape(const std::string& s) {
  std::string out;
  for (unsigned char c : s) {
    if (c <= ' ' || c == '%' || c == 0x7f) {
      out += StrFormat("%%%02X", c);
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
  return out.empty() ? "%00" : out;
}

Result<std::string> PercentUnescape(const std::string& s) {
  auto is_hex = [&s](size_t j) {
    return j < s.size() && std::isxdigit(static_cast<unsigned char>(s[j]));
  };
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out.push_back(s[i]);
      continue;
    }
    if (!is_hex(i + 1) || !is_hex(i + 2)) {
      return Status::InvalidArgument("bad percent escape in: " + s);
    }
    const int c = std::stoi(s.substr(i + 1, 2), nullptr, 16);
    if (c != 0) out.push_back(static_cast<char>(c));  // "%00": empty token
    i += 2;
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace eva
