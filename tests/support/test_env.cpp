// Strict DC_* environment parsing (support/env.hpp): unset or empty keeps
// the caller's default, every accepted spelling parses, and anything else
// raises an Error naming the variable — plus the knobs routed through it
// that have no other test home (DC_LOG_RANK0_ONLY).
#include <gtest/gtest.h>

#include <cstdlib>

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
