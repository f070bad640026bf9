#include "support/logging.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "support/env.hpp"

namespace distconv::log {
namespace {

std::atomic<Level> g_level{Level::kWarn};
std::atomic<bool> g_rank0_only{false};
thread_local int t_rank = -1;
std::mutex g_mutex;

const char* level_name(Level l) {
  switch (l) {
    case Level::kDebug: return "DEBUG";
    case Level::kInfo: return "INFO";
    case Level::kWarn: return "WARN";
    case Level::kError: return "ERROR";
    default: return "?";
  }
}

}  // namespace

void set_level(Level level) { g_level.store(level, std::memory_order_relaxed); }
Level level() { return g_level.load(std::memory_order_relaxed); }

bool parse_level(const std::string& name, Level* out) {
  if (name == "debug") *out = Level::kDebug;
  else if (name == "info") *out = Level::kInfo;
  else if (name == "warn") *out = Level::kWarn;
  else if (name == "error") *out = Level::kError;
  else if (name == "off") *out = Level::kOff;
  else return false;
  return true;
}

void init_from_env() {
  static const bool once = [] {
    if (const char* lvl = std::getenv("DC_LOG_LEVEL")) {
      Level parsed;
      if (parse_level(lvl, &parsed)) {
        set_level(parsed);
      } else {
        write(Level::kWarn,
              std::string("DC_LOG_LEVEL=") + lvl +
                  " is not one of debug/info/warn/error/off; keeping default");
      }
    }
    if (std::getenv("DC_LOG_RANK0_ONLY") != nullptr) {
      set_rank0_only(rank0_only_from_env());
    }
    return true;
  }();
  (void)once;
}

bool rank0_only_from_env() { return env_bool("DC_LOG_RANK0_ONLY", false); }

void set_rank0_only(bool on) {
  g_rank0_only.store(on, std::memory_order_relaxed);
}
bool rank0_only() { return g_rank0_only.load(std::memory_order_relaxed); }

void set_thread_rank(int rank) { t_rank = rank; }
int thread_rank() { return t_rank; }

void write(Level lvl, const std::string& msg) {
  if (t_rank > 0 && rank0_only()) return;
  std::lock_guard<std::mutex> lock(g_mutex);
  if (t_rank >= 0) {
    std::fprintf(stderr, "[%s][rank %d] %s\n", level_name(lvl), t_rank, msg.c_str());
  } else {
    std::fprintf(stderr, "[%s] %s\n", level_name(lvl), msg.c_str());
  }
}

}  // namespace distconv::log
