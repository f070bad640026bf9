#include "support/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "support/error.hpp"

namespace distconv {

std::int64_t env_int(const char* name, std::int64_t fallback,
                     std::int64_t max) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  // Digits only: strtoll alone would also take leading blanks and a sign.
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*s)) || *end != '\0' ||
      errno != 0 || v > max) {
    DC_FAIL(name, " must be an integer in [0, ", max, "], got \"", s, "\"");
  }
  return static_cast<std::int64_t>(v);
}

bool env_bool(const char* name, bool fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  if (std::strcmp(s, "1") == 0 || std::strcmp(s, "true") == 0 ||
      std::strcmp(s, "on") == 0) {
    return true;
  }
  if (std::strcmp(s, "0") == 0 || std::strcmp(s, "false") == 0 ||
      std::strcmp(s, "off") == 0) {
    return false;
  }
  DC_FAIL(name, " must be one of 1|true|on|0|false|off, got \"", s, "\"");
}

}  // namespace distconv
