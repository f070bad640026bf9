// Test helper for strict DC_* environment knobs: every bad value must make
// `read` raise an Error whose message names the variable. The variable is
// unset afterwards so later tests see the default.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>
#include <string>

#include "support/error.hpp"

namespace distconv {

template <typename ReadFn>
void expect_env_rejects(const char* name,
                        std::initializer_list<const char*> bad, ReadFn read) {
  for (const char* value : bad) {
    setenv(name, value, 1);
    try {
      read();
      ADD_FAILURE() << name << "=\"" << value << "\" was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
  unsetenv(name);
}

}  // namespace distconv
