// Strict readers for DC_* environment knobs. Unset or empty returns the
// caller's default; any other value must parse completely, or an Error
// naming the variable is thrown — a typo never silently falls back to the
// default.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>

namespace distconv {

/// DC_* integer knob: a base-10 integer in [0, max].
std::int64_t env_int(
    const char* name, std::int64_t fallback,
    std::int64_t max = std::numeric_limits<std::int64_t>::max());

/// DC_* real knob: a finite decimal number in [min, max].
double env_double(const char* name, double fallback, double min, double max);

/// DC_* enumerated knob: the index of the value in `choices`.
int env_choice(const char* name, std::initializer_list<const char*> choices,
               int fallback);

/// DC_* boolean knob: one of 1|true|on|0|false|off.
bool env_bool(const char* name, bool fallback);

}  // namespace distconv
