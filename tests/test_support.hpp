// Assertion helpers shared by the test binaries.
#pragma once

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/failpoint.hpp"

// Fault-injection tests are vacuous when the SHAREDRES_FAILPOINTS option is
// off (Release builds); they skip instead of failing there.
#define SKIP_WITHOUT_FAILPOINTS()                                  \
  do {                                                             \
    if (!::sharedres::util::failpoint::compiled_in()) {            \
      GTEST_SKIP() << "fail points compiled out of this build";    \
    }                                                              \
  } while (0)

// `stmt` throws util::Error with code kInvalidInstance — the one typed error
// every entry point raises for a violated precondition.
#define EXPECT_INVALID_INSTANCE(stmt)                                       \
  do {                                                                      \
    try {                                                                   \
      stmt;                                                                 \
      ADD_FAILURE() << #stmt " did not throw";                              \
    } catch (const ::sharedres::util::Error& e) {                           \
      EXPECT_EQ(e.code(), ::sharedres::util::ErrorCode::kInvalidInstance)   \
          << e.what();                                                      \
    }                                                                       \
  } while (0)
