#ifndef EVA_COMMON_STRING_UTIL_H_
#define EVA_COMMON_STRING_UTIL_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace eva {

/// ASCII lower-casing (identifiers in EVA-QL are case-insensitive).
std::string ToLower(const std::string& s);
std::string ToUpper(const std::string& s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Percent-escaping for space-separated text tokens: control bytes, space,
/// '%' and DEL become %XX; "" becomes "%00" (unescaping drops NUL bytes).
/// Unescape rejects truncated or non-hex escapes.
std::string PercentEscape(const std::string& s);
Result<std::string> PercentUnescape(const std::string& s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace eva

#endif  // EVA_COMMON_STRING_UTIL_H_
