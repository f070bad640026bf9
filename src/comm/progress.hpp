// Names kept only for perfbench/driver.cpp, which still prints the progress
// mode and pins ModelOptions::comm_progress. Every op advances only in its
// owning rank's enqueue/progress/drain calls, so there is one mode. Delete
// this header, ModelOptions::comm_progress and perfbench's
// comm.bg_retire_frac (always 0) with the benchmark's next change.
#pragma once

#include <cstdlib>
#include <cstring>

#include "support/error.hpp"

namespace distconv::comm {

enum class ProgressMode { kOff };

inline const char* to_string(ProgressMode) { return "off"; }

/// Always kOff. DC_COMM_PROGRESS is retired: unset, empty or "off" pass, and
/// any other value (a stale "thread" or "hooks") raises an Error naming the
/// variable instead of being ignored.
inline ProgressMode progress_mode_from_env() {
  const char* s = std::getenv("DC_COMM_PROGRESS");
  if (s != nullptr && *s != '\0' && std::strcmp(s, "off") != 0) {
    DC_FAIL("DC_COMM_PROGRESS was removed (ops advance only on their owning "
            "rank); unset it or set it to \"off\", got \"", s, "\"");
  }
  return ProgressMode::kOff;
}

}  // namespace distconv::comm
