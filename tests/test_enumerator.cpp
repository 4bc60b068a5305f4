// Tests for BSAT: completeness, projection semantics, bounds, deadlines.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "helpers.hpp"
#include "sat/enumerator.hpp"

namespace unigen {
namespace {

using test::brute_force_count;
using test::brute_force_projected_count;
using test::random_cnf;
using test::random_cnf_xor;

TEST(Enumerator, ExhaustsSmallFormula) {
  Cnf cnf(3);
  cnf.add_clause({Lit(0, false), Lit(1, false)});  // a | b
  // 6 of 8 assignments satisfy a|b.
  const auto result = bsat(cnf, 100);
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.count, 6u);
  EXPECT_EQ(result.models.size(), 6u);
}

TEST(Enumerator, RespectsMaxModels) {
  Cnf cnf(4);
  cnf.add_clause({Lit(0, false), Lit(1, false)});
  const auto result = bsat(cnf, 3);
  EXPECT_FALSE(result.exhausted);
  EXPECT_EQ(result.count, 3u);
}

TEST(Enumerator, UnsatFormulaYieldsNothing) {
  Cnf cnf(1);
  cnf.add_clause({Lit(0, false)});
  cnf.add_clause({Lit(0, true)});
  const auto result = bsat(cnf, 10);
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.count, 0u);
}

TEST(Enumerator, ModelsAreDistinctAndValid) {
  Rng rng(23);
  const Cnf cnf = random_cnf(8, 18, 3, rng);
  const auto result = bsat(cnf, 10000);
  ASSERT_TRUE(result.exhausted);
  std::set<std::vector<int>> distinct;
  for (const Model& m : result.models) {
    EXPECT_TRUE(cnf.satisfied_by(m));
    std::vector<int> key;
    for (const lbool v : m) key.push_back(static_cast<int>(v));
    distinct.insert(key);
  }
  EXPECT_EQ(distinct.size(), result.models.size());
  EXPECT_EQ(result.count, brute_force_count(cnf));
}

TEST(Enumerator, ProjectionCountsDistinctProjections) {
  // y is free; projecting on {x} must count each x-value once.
  Cnf cnf(2);
  cnf.add_clause({Lit(0, false), Lit(1, false)});
  cnf.set_sampling_set({0});
  const auto result = bsat(cnf, 100);
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.count, 2u);  // x=0 (with y=1) and x=1
}

TEST(Enumerator, ProjectedCountMatchesBruteForce) {
  Rng rng(31);
  for (int round = 0; round < 10; ++round) {
    Cnf cnf = random_cnf_xor(8, 14, 3, 2, rng);
    const std::vector<Var> proj{0, 2, 4, 6};
    cnf.set_sampling_set(proj);
    const auto result = bsat(cnf, 10000);
    ASSERT_TRUE(result.exhausted);
    EXPECT_EQ(result.count, brute_force_projected_count(cnf, proj))
        << "round " << round;
  }
}

TEST(Enumerator, StoreModelsOffStillCounts) {
  Rng rng(5);
  const Cnf cnf = random_cnf(8, 16, 3, rng);
  Solver s;
  s.load(cnf);
  EnumerateOptions opts;
  opts.store_models = false;
  const auto result = enumerate_models(s, opts);
  EXPECT_TRUE(result.exhausted);
  EXPECT_TRUE(result.models.empty());
  EXPECT_EQ(result.count, brute_force_count(cnf));
}

TEST(Enumerator, ExpiredDeadlineReportsTimeout) {
  Rng rng(5);
  const Cnf cnf = random_cnf(16, 30, 3, rng);
  const auto result = bsat(cnf, UINT64_MAX, Deadline::in_seconds(0.0));
  EXPECT_TRUE(result.timed_out);
  EXPECT_FALSE(result.exhausted);
}

TEST(Enumerator, FullModelsReturnedUnderProjection) {
  // Even when blocking over the projection, returned models are total.
  Cnf cnf(3);
  cnf.add_clause({Lit(0, false)});
  cnf.add_clause({Lit(0, true), Lit(2, false)});
  cnf.set_sampling_set({0, 1});
  const auto result = bsat(cnf, 100);
  ASSERT_TRUE(result.exhausted);
  EXPECT_EQ(result.count, 2u);  // x1 free in projection, x2 forced
  for (const Model& m : result.models) {
    ASSERT_EQ(m.size(), 3u);
    EXPECT_TRUE(cnf.satisfied_by(m));
  }
}

/// Projections of `models` onto `proj`, as 0/1 keys.
std::set<std::vector<int>> projections(const std::vector<Model>& models,
                                       const std::vector<Var>& proj) {
  std::set<std::vector<int>> keys;
  for (const Model& m : models) {
    std::vector<int> key;
    for (const Var v : proj)
      key.push_back(m[static_cast<std::size_t>(v)] == lbool::True ? 1 : 0);
    keys.insert(std::move(key));
  }
  return keys;
}

/// Seeded random CNF+XOR instance (6..12 variables) with a random
/// sampling set; small enough to brute-force.
Cnf random_projected_instance(Rng& rng) {
  const auto n = static_cast<Var>(6 + rng.below(7));
  const auto clauses = static_cast<std::size_t>(
      n + static_cast<Var>(rng.below(static_cast<std::uint64_t>(n))));
  const auto xors = static_cast<std::size_t>(1 + rng.below(3));
  Cnf cnf = random_cnf_xor(n, clauses, 3, xors, rng);
  test::attach_random_sampling_set(cnf, static_cast<std::size_t>(n), rng);
  return cnf;
}

EnumerateResult enumerate_fresh(const Cnf& cnf, std::uint64_t max_models,
                                Solver& solver) {
  solver.load(cnf);
  EnumerateOptions opts;
  opts.max_models = max_models;
  opts.projection = cnf.sampling_set_or_all();
  return enumerate_models(solver, opts);
}

TEST(EnumeratorProperty, ProjectedModelSetEqualsBruteForce) {
  Rng rng(4242);
  for (int round = 0; round < 40; ++round) {
    const Cnf cnf = random_projected_instance(rng);
    const std::vector<Var> proj = cnf.sampling_set_or_all();
    Solver solver;
    const auto result = enumerate_fresh(cnf, UINT64_MAX, solver);
    ASSERT_TRUE(result.exhausted) << "round " << round;
    EXPECT_EQ(solver.decision_level(), 0) << "round " << round;
    for (const Model& m : result.models)
      EXPECT_TRUE(cnf.satisfied_by(m)) << "round " << round;
    const auto found = projections(result.models, proj);
    EXPECT_EQ(found.size(), result.models.size()) << "round " << round;
    EXPECT_EQ(found, projections(test::brute_force_models(cnf), proj))
        << "round " << round;
  }
}

TEST(EnumeratorProperty, CountIsTheCappedProjectedCount) {
  Rng rng(777);
  for (int round = 0; round < 25; ++round) {
    const Cnf cnf = random_projected_instance(rng);
    const std::uint64_t n =
        brute_force_projected_count(cnf, cnf.sampling_set_or_all());
    for (const std::uint64_t cap :
         {std::uint64_t{1}, n > 1 ? n - 1 : 1, n, n + 1, 2 * n + 3}) {
      if (cap == 0) continue;
      Solver solver;
      const auto result = enumerate_fresh(cnf, cap, solver);
      EXPECT_EQ(result.count, std::min(cap, n))
          << "round " << round << " cap " << cap;
      // At cap == n exhaustion shows only if the last block leaves no
      // literal, so the flag is pinned on either side of n alone.
      if (cap != n) {
        EXPECT_EQ(result.exhausted, cap > n)
            << "round " << round << " cap " << cap;
      }
      EXPECT_EQ(solver.decision_level(), 0)
          << "round " << round << " cap " << cap;
    }
  }
}

TEST(EnumeratorProperty, CellForcedByAssumptionsEndsExhausted) {
  // The assumptions alone fix the whole projection: one model, and the
  // block of that model must lead to exhaustion, with or without a
  // retractable activation literal on the blocking clause.
  for (const bool with_activation : {false, true}) {
    Cnf cnf(5);
    cnf.add_clause({Lit(3, false), Lit(4, false)});
    cnf.add_clause({Lit(0, true), Lit(3, false)});
    Solver solver;
    solver.load(cnf);
    EnumerateOptions opts;
    opts.projection = {0, 1, 2};
    opts.assumptions = {Lit(0, false), Lit(1, true), Lit(2, false)};
    if (with_activation) {
      const Var selector = solver.new_var();
      opts.assumptions.push_back(Lit(selector, true));
      opts.block_activation = Lit(selector, false);
    }
    const auto result = enumerate_models(solver, opts);
    EXPECT_TRUE(result.exhausted) << with_activation;
    EXPECT_EQ(result.count, 1u) << with_activation;
    EXPECT_EQ(result.blocks_added, 1u) << with_activation;
    EXPECT_EQ(solver.decision_level(), 0) << with_activation;
    EXPECT_TRUE(solver.okay()) << with_activation;
  }
}

}  // namespace
}  // namespace unigen
