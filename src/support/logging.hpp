// Minimal thread-safe logging. Rank threads tag messages with their rank.
#pragma once

#include <sstream>
#include <string>

namespace distconv::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold; messages below it are dropped. Default: kWarn.
void set_level(Level level);
Level level();

/// Reads DC_LOG_LEVEL now: level() when unset or empty; throws an Error
/// naming the variable unless it is one of debug|info|warn|error|off.
Level level_from_env();

/// Read DC_LOG_LEVEL into set_level and DC_LOG_RANK0_ONLY into
/// set_rank0_only. Idempotent; World::run calls it before spawning ranks.
void init_from_env();

/// Reads DC_LOG_RANK0_ONLY now: false when unset or empty; throws an Error
/// naming the variable unless it is one of 1|true|on|0|false|off.
bool rank0_only_from_env();

/// When on, messages from rank threads other than rank 0 are dropped
/// (rank-less threads still log). For multi-rank runs where every rank
/// would otherwise print the same line P times.
void set_rank0_only(bool on);
bool rank0_only();

/// Associates a rank with the calling thread for log prefixes (-1 = none).
void set_thread_rank(int rank);
int thread_rank();

void write(Level level, const std::string& msg);

namespace internal {
template <typename... Args>
void log_at(Level lvl, Args&&... args) {
  if (lvl < level()) return;
  std::ostringstream oss;
  (oss << ... << args);
  write(lvl, oss.str());
}
}  // namespace internal

template <typename... Args>
void debug(Args&&... args) {
  internal::log_at(Level::kDebug, std::forward<Args>(args)...);
}
template <typename... Args>
void info(Args&&... args) {
  internal::log_at(Level::kInfo, std::forward<Args>(args)...);
}
template <typename... Args>
void warn(Args&&... args) {
  internal::log_at(Level::kWarn, std::forward<Args>(args)...);
}
template <typename... Args>
void error(Args&&... args) {
  internal::log_at(Level::kError, std::forward<Args>(args)...);
}

}  // namespace distconv::log
