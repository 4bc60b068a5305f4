// Unit and property tests for the CDCL core: correctness against
// brute-force semantics, incremental use, assumptions, and budgets.

#include <gtest/gtest.h>

#include <set>

#include "helpers.hpp"
#include "sat/solver.hpp"

namespace unigen {
namespace {

using test::brute_force_count;
using test::random_cnf;

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

TEST(Solver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(Solver, SingleUnit) {
  Solver s;
  const Var v = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(v)}));
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_EQ(s.model()[0], lbool::True);
}

TEST(Solver, ContradictoryUnitsAreUnsat) {
  Solver s;
  const Var v = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(v)}));
  EXPECT_FALSE(s.add_clause({neg(v)}));
  EXPECT_FALSE(s.okay());
  EXPECT_EQ(s.solve(), lbool::False);
}

TEST(Solver, EmptyClauseIsUnsat) {
  Solver s;
  s.new_var();
  EXPECT_FALSE(s.add_clause({}));
  EXPECT_EQ(s.solve(), lbool::False);
}

TEST(Solver, TautologicalClauseIsDropped) {
  Solver s;
  const Var v = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(v), neg(v)}));
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(Solver, DuplicateLiteralsAreMerged) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(a), pos(a), pos(b), pos(b)}));
  ASSERT_TRUE(s.add_clause({neg(a)}));
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_EQ(s.model()[1], lbool::True);
}

TEST(Solver, SimpleUnsatCore2Vars) {
  // (a|b)(a|~b)(~a|b)(~a|~b) is UNSAT.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({pos(a), pos(b)});
  s.add_clause({pos(a), neg(b)});
  s.add_clause({neg(a), pos(b)});
  s.add_clause({neg(a), neg(b)});
  EXPECT_EQ(s.solve(), lbool::False);
  EXPECT_FALSE(s.okay());
}

TEST(Solver, PigeonHole3Into2IsUnsat) {
  // p_{i,j}: pigeon i in hole j; 3 pigeons, 2 holes.
  Solver s;
  Var p[3][2];
  for (auto& row : p)
    for (auto& x : row) x = s.new_var();
  for (int i = 0; i < 3; ++i) s.add_clause({pos(p[i][0]), pos(p[i][1])});
  for (int j = 0; j < 2; ++j)
    for (int i1 = 0; i1 < 3; ++i1)
      for (int i2 = i1 + 1; i2 < 3; ++i2)
        s.add_clause({neg(p[i1][j]), neg(p[i2][j])});
  EXPECT_EQ(s.solve(), lbool::False);
}

TEST(Solver, PigeonHole5Into4IsUnsat) {
  Solver s;
  constexpr int kPigeons = 5, kHoles = 4;
  Var p[kPigeons][kHoles];
  for (auto& row : p)
    for (auto& x : row) x = s.new_var();
  for (int i = 0; i < kPigeons; ++i) {
    std::vector<Lit> c;
    for (int j = 0; j < kHoles; ++j) c.push_back(pos(p[i][j]));
    s.add_clause(c);
  }
  for (int j = 0; j < kHoles; ++j)
    for (int i1 = 0; i1 < kPigeons; ++i1)
      for (int i2 = i1 + 1; i2 < kPigeons; ++i2)
        s.add_clause({neg(p[i1][j]), neg(p[i2][j])});
  EXPECT_EQ(s.solve(), lbool::False);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Solver, ChainPropagation) {
  // x0 -> x1 -> ... -> x49, assert x0: all true by unit propagation.
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 50; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 50; ++i) s.add_clause({neg(v[i]), pos(v[i + 1])});
  s.add_clause({pos(v[0])});
  ASSERT_EQ(s.solve(), lbool::True);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(s.model()[v[i]], lbool::True);
}

TEST(Solver, ModelSatisfiesFormula) {
  Rng rng(7);
  for (int round = 0; round < 30; ++round) {
    const Cnf cnf = random_cnf(12, 40, 3, rng);
    Solver s;
    s.load(cnf);
    if (s.solve() == lbool::True) {
      EXPECT_TRUE(cnf.satisfied_by(s.model())) << "round " << round;
    }
  }
}

TEST(Solver, AssumptionsBasics) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({neg(a), pos(b)});
  ASSERT_EQ(s.solve({pos(a)}), lbool::True);
  EXPECT_EQ(s.model()[b], lbool::True);
  ASSERT_EQ(s.solve({pos(a), neg(b)}), lbool::False);
  // Solver state must be reusable after an assumption failure.
  ASSERT_EQ(s.solve({neg(a)}), lbool::True);
  EXPECT_TRUE(s.okay());
}

TEST(Solver, AssumptionContradictingUnit) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({pos(a)});
  EXPECT_EQ(s.solve({neg(a)}), lbool::False);
  EXPECT_TRUE(s.okay());  // only UNSAT under assumptions
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(Solver, IncrementalClauseAddition) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({pos(a), pos(b)});
  ASSERT_EQ(s.solve(), lbool::True);
  ASSERT_TRUE(s.add_clause({neg(a)}));
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_EQ(s.model()[b], lbool::True);
  ASSERT_TRUE(s.add_clause({neg(b)}) || !s.okay());
  EXPECT_EQ(s.solve(), lbool::False);
}

TEST(Solver, ConflictBudgetReturnsUndef) {
  // A hard instance (PHP 8/7) with a 1-conflict budget cannot finish.
  Solver s;
  constexpr int kPigeons = 8, kHoles = 7;
  std::vector<std::vector<Var>> p(kPigeons, std::vector<Var>(kHoles));
  for (auto& row : p)
    for (auto& x : row) x = s.new_var();
  for (int i = 0; i < kPigeons; ++i) {
    std::vector<Lit> c;
    for (int j = 0; j < kHoles; ++j) c.push_back(pos(p[i][j]));
    s.add_clause(c);
  }
  for (int j = 0; j < kHoles; ++j)
    for (int i1 = 0; i1 < kPigeons; ++i1)
      for (int i2 = i1 + 1; i2 < kPigeons; ++i2)
        s.add_clause({neg(p[i1][j]), neg(p[i2][j])});
  EXPECT_EQ(s.solve_limited({}, Deadline::never(), 1), lbool::Undef);
  // And with no budget it completes.
  EXPECT_EQ(s.solve(), lbool::False);
}

TEST(Solver, ExpiredDeadlineReturnsUndef) {
  Solver s;
  constexpr int kPigeons = 9, kHoles = 8;
  std::vector<std::vector<Var>> p(kPigeons, std::vector<Var>(kHoles));
  for (auto& row : p)
    for (auto& x : row) x = s.new_var();
  for (int i = 0; i < kPigeons; ++i) {
    std::vector<Lit> c;
    for (int j = 0; j < kHoles; ++j) c.push_back(pos(p[i][j]));
    s.add_clause(c);
  }
  for (int j = 0; j < kHoles; ++j)
    for (int i1 = 0; i1 < kPigeons; ++i1)
      for (int i2 = i1 + 1; i2 < kPigeons; ++i2)
        s.add_clause({neg(p[i1][j]), neg(p[i2][j])});
  EXPECT_EQ(s.solve_limited({}, Deadline::in_seconds(0.0), 0), lbool::Undef);
}

TEST(Solver, GaussRunsOnXorsAddedAfterSolve) {
  // Regression: a solver that already ran solve() (gauss_done_ set) must
  // re-run Gaussian elimination over XOR rows added afterwards.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  s.add_clause({pos(a), pos(b), pos(c)});
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_EQ(s.stats().gauss_rows, 0u);
  // x0^x1 = 1 and x0^x1^x2 = 1 imply x2 = 0 — but only elimination sees it
  // eagerly; the watch scheme alone would discover it during search.
  ASSERT_TRUE(s.add_xor({a, b}, true));
  ASSERT_TRUE(s.add_xor({a, b, c}, true));
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_GT(s.stats().gauss_rows, 0u);
  EXPECT_GT(s.stats().gauss_units, 0u);
  EXPECT_EQ(s.fixed_value(c), lbool::False);
}

/// The clause that blocks `m` over all variables: some variable must flip.
std::vector<Lit> blocking_clause(const Model& m) {
  std::vector<Lit> block;
  for (std::size_t v = 0; v < m.size(); ++v)
    block.push_back(Lit(static_cast<Var>(v), m[v] == lbool::True));
  return block;
}

TEST(Solver, NextModelAndBlockModelVisitEveryModelOnce) {
  Rng rng(29);
  for (int round = 0; round < 20; ++round) {
    const Cnf cnf = random_cnf(9, 30, 3, rng);
    Solver s;
    s.load(cnf);
    std::set<Model> seen;
    for (;;) {
      const lbool status = s.next_model({}, Deadline::never(), 0, nullptr);
      if (status != lbool::True) {
        EXPECT_EQ(status, lbool::False) << "round " << round;
        break;
      }
      const Model m = s.model();
      EXPECT_TRUE(cnf.satisfied_by(m)) << "round " << round;
      EXPECT_TRUE(seen.insert(m).second) << "round " << round;
      if (!s.block_model(blocking_clause(m))) break;
    }
    EXPECT_EQ(seen.size(), brute_force_count(cnf)) << "round " << round;
  }
}

TEST(Solver, BlockModelDropsRootLiteralsAndUnitsAtRoot) {
  // a is a root fact, so blocking {¬a, ¬b} leaves the unit ¬b; blocking
  // the second model then leaves no literal at all.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(a)}));
  ASSERT_EQ(s.next_model({}, Deadline::never(), 0, nullptr), lbool::True);
  const lbool first_b = s.model()[static_cast<std::size_t>(b)];
  ASSERT_TRUE(s.block_model(blocking_clause(s.model())));
  EXPECT_EQ(s.fixed_value(b), ~first_b);
  ASSERT_EQ(s.next_model({}, Deadline::never(), 0, nullptr), lbool::True);
  EXPECT_FALSE(s.block_model(blocking_clause(s.model())));
  EXPECT_FALSE(s.okay());
  EXPECT_EQ(s.solve(), lbool::False);
}

TEST(Solver, AbsorberActivatedXorToggles) {
  // XOR(a, b, absorber) = 1: inert while the absorber is free, equivalent
  // to a^b=1 under the assumption ¬absorber.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var z = s.new_var();
  s.mark_absorber(z);
  ASSERT_TRUE(s.add_xor({a, b, z}, true));
  // Inert: both equal-value assignments of (a, b) remain possible.
  ASSERT_EQ(s.solve({pos(a), pos(b)}), lbool::True);
  ASSERT_EQ(s.solve({neg(a), neg(b)}), lbool::True);
  // Active: a^b = 1 forbids equal values.
  ASSERT_EQ(s.solve({neg(z), pos(a), pos(b)}), lbool::False);
  ASSERT_EQ(s.solve({neg(z), pos(a), neg(b)}), lbool::True);
  EXPECT_TRUE(s.okay());
}

TEST(Solver, RetireRowsRemovesConstraintAndFreezesAbsorber) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var z = s.new_var();
  s.mark_absorber(z);
  ASSERT_TRUE(s.add_xor({a, b, z}, true));
  ASSERT_EQ(s.solve({neg(z), pos(a), pos(b)}), lbool::False);
  s.retire_rows({z});
  // The row is gone: (a, b) unconstrained again, absorber fixed at root.
  ASSERT_EQ(s.solve({pos(a), pos(b)}), lbool::True);
  EXPECT_NE(s.fixed_value(z), lbool::Undef);
}

TEST(Solver, StatsAreTracked) {
  Rng rng(11);
  const Cnf cnf = random_cnf(30, 126, 3, rng);
  Solver s;
  s.load(cnf);
  s.solve();
  EXPECT_GT(s.stats().propagations, 0u);
  EXPECT_GT(s.stats().decisions, 0u);
}

// --- property test: solver verdict matches brute force on random 3-CNF ---

class SolverFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SolverFuzz, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  // Sweep clause density through the SAT/UNSAT transition.
  for (std::size_t clauses : {20u, 35u, 45u, 55u, 70u}) {
    const Cnf cnf = random_cnf(10, clauses, 3, rng);
    const bool expect_sat = brute_force_count(cnf) > 0;
    Solver s;
    s.load(cnf);
    const lbool got = s.solve();
    ASSERT_NE(got, lbool::Undef);
    EXPECT_EQ(got == lbool::True, expect_sat)
        << "seed=" << GetParam() << " clauses=" << clauses;
    if (got == lbool::True) {
      EXPECT_TRUE(cnf.satisfied_by(s.model()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SolverFuzz, ::testing::Range(0, 25));

// --- property test: repeated incremental solving with blocking clauses ---

class SolverIncrementalFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SolverIncrementalFuzz, BlockingEnumerationTerminates) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 1);
  const Cnf cnf = random_cnf(9, 25, 3, rng);
  const std::uint64_t expected = brute_force_count(cnf);
  Solver s;
  s.load(cnf);
  std::uint64_t found = 0;
  while (s.solve() == lbool::True) {
    const Model& m = s.model();
    EXPECT_TRUE(cnf.satisfied_by(m));
    ++found;
    std::vector<Lit> block;
    for (Var v = 0; v < cnf.num_vars(); ++v)
      block.emplace_back(v, m[static_cast<std::size_t>(v)] == lbool::True);
    if (!s.add_clause(std::move(block))) break;
    ASSERT_LE(found, expected);
  }
  EXPECT_EQ(found, expected);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SolverIncrementalFuzz,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace unigen
