#pragma once
// Byte-level equality of two anytime ApproxMC results, shared by the
// suites that check cut + resume against an uninterrupted run.

#include <gtest/gtest.h>

#include <cstddef>

#include "counting/approxmc.hpp"

namespace unigen::test {

/// Equal statuses, estimates and labels, and the same resume-state ledger
/// slot by slot.
inline void expect_identical(const ApproxMcAnytime& a,
                             const ApproxMcAnytime& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.iterations_completed, b.iterations_completed);
  EXPECT_EQ(a.achieved_delta, b.achieved_delta);
  EXPECT_EQ(a.result.valid, b.result.valid);
  EXPECT_EQ(a.result.cell_count, b.result.cell_count);
  EXPECT_EQ(a.result.hash_count, b.result.hash_count);
  EXPECT_EQ(a.result.bsat_calls, b.result.bsat_calls);
  EXPECT_EQ(a.result.iterations_succeeded, b.result.iterations_succeeded);
  ASSERT_EQ(a.state.outcomes.size(), b.state.outcomes.size());
  ASSERT_EQ(a.state.settled.size(), b.state.settled.size());
  for (std::size_t i = 0; i < a.state.outcomes.size(); ++i) {
    EXPECT_EQ(a.state.settled[i], b.state.settled[i]) << "slot " << i;
    const ApproxMcCoreOutcome& x = a.state.outcomes[i];
    const ApproxMcCoreOutcome& y = b.state.outcomes[i];
    EXPECT_EQ(x.ok, y.ok) << "slot " << i;
    EXPECT_EQ(x.timed_out, y.timed_out) << "slot " << i;
    EXPECT_EQ(x.faulted, y.faulted) << "slot " << i;
    EXPECT_EQ(x.cell_count, y.cell_count) << "slot " << i;
    EXPECT_EQ(x.hash_count, y.hash_count) << "slot " << i;
    EXPECT_EQ(x.bsat_calls, y.bsat_calls) << "slot " << i;
  }
}

}  // namespace unigen::test
