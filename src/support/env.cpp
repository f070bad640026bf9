#include "support/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

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

double env_double(const char* name, double fallback, double min, double max) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  // A digit or '.' first: strtod alone would also take blanks, a sign,
  // "inf" and "nan".
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (!(std::isdigit(static_cast<unsigned char>(*s)) || *s == '.') ||
      *end != '\0' || errno != 0 || !std::isfinite(v) || v < min || v > max) {
    DC_FAIL(name, " must be a number in [", min, ", ", max, "], got \"", s,
            "\"");
  }
  return v;
}

int env_choice(const char* name, std::initializer_list<const char*> choices,
               int fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  int i = 0;
  std::string spelled;
  for (const char* c : choices) {
    if (std::strcmp(s, c) == 0) return i;
    spelled += (i++ == 0 ? "" : "|") + std::string(c);
  }
  DC_FAIL(name, " must be one of ", spelled, ", got \"", s, "\"");
}

bool env_bool(const char* name, bool fallback) {
  return env_choice(name, {"1", "true", "on", "0", "false", "off"},
                    fallback ? 0 : 3) < 3;
}

}  // namespace distconv
