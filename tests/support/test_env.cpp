// Strict DC_* environment parsing (support/env.hpp): unset or empty keeps
// the caller's default, every accepted spelling parses, and anything else
// raises an Error naming the variable — plus the knobs routed through it
// that have no other test home (DC_LOG_RANK0_ONLY, DC_LOG_LEVEL,
// DC_OBS_FLUSH_MS, DC_OBS_KEEP_SEGMENTS, DC_OBS_DRIFT_EVERY,
// DC_OBS_DRIFT_TOL, DC_TRACE_BUF).
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>

#include "obs/drift.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "support/env.hpp"
#include "support/logging.hpp"
#include "tests/support/env_check.hpp"

namespace distconv {
namespace {

constexpr const char* kVar = "DC_TEST_ENV_KNOB";

TEST(Env, IntDefaultsParsesAndBounds) {
  unsetenv(kVar);
  EXPECT_EQ(env_int(kVar, 7), 7);
  setenv(kVar, "", 1);
  EXPECT_EQ(env_int(kVar, 7), 7);
  setenv(kVar, "0", 1);
  EXPECT_EQ(env_int(kVar, 7), 0);
  setenv(kVar, "42", 1);
  EXPECT_EQ(env_int(kVar, 7, /*max=*/42), 42);
  expect_env_rejects(kVar, {"43"}, [] { env_int(kVar, 7, /*max=*/42); });
  expect_env_rejects(kVar, {"5s", "abc", " 5", "+5", "-1", "1e3",
                            "99999999999999999999"},
                     [] { env_int(kVar, 7); });
}

TEST(Env, BoolAcceptsOnlyKnownSpellings) {
  unsetenv(kVar);
  EXPECT_TRUE(env_bool(kVar, true));
  EXPECT_FALSE(env_bool(kVar, false));
  for (const char* on : {"1", "true", "on"}) {
    setenv(kVar, on, 1);
    EXPECT_TRUE(env_bool(kVar, false)) << on;
  }
  for (const char* off : {"0", "false", "off"}) {
    setenv(kVar, off, 1);
    EXPECT_FALSE(env_bool(kVar, true)) << off;
  }
  expect_env_rejects(kVar, {"yes", "TRUE", "2", "on "},
                     [] { env_bool(kVar, false); });
}

TEST(Env, DoubleParsesFiniteNumbersInRange) {
  unsetenv(kVar);
  EXPECT_EQ(env_double(kVar, 2.5, 1.0, 10.0), 2.5);
  for (const auto& [text, value] :
       {std::pair{"3", 3.0}, {"1.5", 1.5}, {".5e1", 5.0}, {"10", 10.0}}) {
    setenv(kVar, text, 1);
    EXPECT_EQ(env_double(kVar, 2.5, 1.0, 10.0), value) << text;
  }
  expect_env_rejects(kVar, {"0.5", "11", "abc", "2x", " 2", "-2", "+2", "inf",
                            "nan", "1e999"},
                     [] { env_double(kVar, 2.5, 1.0, 10.0); });
}

TEST(Env, ChoiceReturnsTheIndex) {
  unsetenv(kVar);
  EXPECT_EQ(env_choice(kVar, {"a", "b"}, 1), 1);
  setenv(kVar, "a", 1);
  EXPECT_EQ(env_choice(kVar, {"a", "b"}, 1), 0);
  expect_env_rejects(kVar, {"c", "A", "a "},
                     [] { env_choice(kVar, {"a", "b"}, 1); });
}

TEST(Env, LogLevelIsStrict) {
  setenv("DC_LOG_LEVEL", "error", 1);
  EXPECT_EQ(log::level_from_env(), log::Level::kError);
  expect_env_rejects("DC_LOG_LEVEL", {"verbose", "WARN", "2"},
                     [] { log::level_from_env(); });
  EXPECT_EQ(log::level_from_env(), log::level());
}

TEST(Env, ObsFlushMsIsStrict) {
  setenv("DC_OBS_FLUSH_MS", "250", 1);
  EXPECT_EQ(obs::stream::options_from_env().period_ms, 250);
  expect_env_rejects("DC_OBS_FLUSH_MS", {"fast", "100ms", "-5"},
                     [] { obs::stream::options_from_env(); });
  EXPECT_EQ(obs::stream::options_from_env().period_ms, 0);
}

TEST(Env, ObsKeepSegmentsIsStrict) {
  setenv("DC_OBS_KEEP_SEGMENTS", "4", 1);
  EXPECT_EQ(obs::stream::options_from_env().keep_segments, 4);
  expect_env_rejects("DC_OBS_KEEP_SEGMENTS", {"all", "4.5", "3000000000"},
                     [] { obs::stream::options_from_env(); });
  EXPECT_EQ(obs::stream::options_from_env().keep_segments, 0);
}

TEST(Env, ObsDriftEveryIsStrict) {
  setenv("DC_OBS_DRIFT_EVERY", "5", 1);
  EXPECT_EQ(obs::drift_options_from_env().every, 5);
  expect_env_rejects("DC_OBS_DRIFT_EVERY", {"often", "5steps", "-1"},
                     [] { obs::drift_options_from_env(); });
  EXPECT_EQ(obs::drift_options_from_env().every, 0);
}

TEST(Env, ObsDriftTolIsStrict) {
  setenv("DC_OBS_DRIFT_TOL", "1.5", 1);
  EXPECT_EQ(obs::drift_options_from_env().warn_ratio, 1.5);
  expect_env_rejects("DC_OBS_DRIFT_TOL", {"loose", "2x", "0.5", "nan"},
                     [] { obs::drift_options_from_env(); });
  EXPECT_EQ(obs::drift_options_from_env().warn_ratio, 2.0);
}

TEST(Env, TraceBufIsStrict) {
  unsetenv("DC_TRACE_BUF");
  EXPECT_EQ(obs::trace::capacity_from_env(), 16384u);
  setenv("DC_TRACE_BUF", "64", 1);
  EXPECT_EQ(obs::trace::capacity_from_env(), 64u);
  expect_env_rejects("DC_TRACE_BUF", {"big", "64k", "-1"},
                     [] { obs::trace::capacity_from_env(); });
}

/// DC_LOG_RANK0_ONLY used to accept only the exact string "1", so "true" or
/// "on" silently meant off.
TEST(Env, LogRank0OnlyUsesStrictBool) {
  for (const char* on : {"1", "true", "on"}) {
    setenv("DC_LOG_RANK0_ONLY", on, 1);
    EXPECT_TRUE(log::rank0_only_from_env()) << on;
  }
  setenv("DC_LOG_RANK0_ONLY", "off", 1);
  EXPECT_FALSE(log::rank0_only_from_env());
  expect_env_rejects("DC_LOG_RANK0_ONLY", {"yes", "2"},
                     [] { log::rank0_only_from_env(); });
  EXPECT_FALSE(log::rank0_only_from_env());
}

}  // namespace
}  // namespace distconv
