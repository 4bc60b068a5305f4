// Tests for the incremental BSAT engine: assumption-activated XOR hash
// rows, blocking-clause retraction, learnt-clause retention, and the
// one-persistent-solver guarantee (solver_rebuilds stays at 1) for both
// ApproxMC runs and UniGen instances.

#include <gtest/gtest.h>

#include <atomic>
#include <utility>

#include "core/unigen.hpp"
#include "counting/approxmc.hpp"
#include "hashing/xor_hash.hpp"
#include "helpers.hpp"
#include "sat/incremental_bsat.hpp"
#include "simplify/simplify.hpp"
#include "workloads/sketch.hpp"

namespace unigen {
namespace {

using test::brute_force_projected_count;
using test::random_cnf;
using test::random_cnf_xor;

/// Reference count of cnf ∧ (first m rows of h), projected on `proj`.
std::uint64_t reference_cell_count(const Cnf& cnf, const XorHash& h,
                                   std::size_t m, const std::vector<Var>& proj) {
  Cnf hashed = cnf;
  for (std::size_t i = 0; i < m; ++i) hashed.add_xor(h.rows[i]);
  return brute_force_projected_count(hashed, proj);
}

TEST(IncrementalBsat, ActivatedRowsMatchBruteForceAtEveryLevel) {
  Rng rng(101);
  const std::vector<Var> proj{0, 1, 2, 3, 4, 5, 6, 7};
  for (int round = 0; round < 10; ++round) {
    const Cnf cnf = random_cnf(10, 22, 3, rng);
    IncrementalBsat engine(cnf, proj);
    const XorHash h = draw_xor_hash(proj, 5, rng);
    engine.push_rows(h);
    ASSERT_EQ(engine.hash_level(), 5u);
    // Climb the levels, then revisit lower ones: activation is by
    // assumption only, so levels nest and earlier levels stay available.
    for (std::size_t m : {0u, 1u, 3u, 5u, 2u, 0u}) {
      const auto r =
          engine.enumerate_cell(m, 100000, Deadline::never(), false);
      ASSERT_TRUE(r.exhausted);
      EXPECT_EQ(r.count, reference_cell_count(cnf, h, m, proj))
          << "round " << round << " m " << m;
    }
  }
}

TEST(IncrementalBsat, FreshEpochReplacesTheHash) {
  Rng rng(202);
  const std::vector<Var> proj{0, 1, 2, 3, 4, 5};
  const Cnf cnf = random_cnf(9, 18, 3, rng);
  IncrementalBsat engine(cnf, proj);
  const std::uint64_t base =
      engine.enumerate_cell(0, 100000, Deadline::never(), false).count;
  for (int epoch = 0; epoch < 25; ++epoch) {
    engine.begin_hash();
    const XorHash h = draw_xor_hash(proj, 3, rng);
    engine.push_rows(h);
    const auto r = engine.enumerate_cell(3, 100000, Deadline::never(), false);
    ASSERT_TRUE(r.exhausted);
    EXPECT_EQ(r.count, reference_cell_count(cnf, h, 3, proj)) << epoch;
    // Old epochs must not constrain the new one: level 0 still sees the
    // whole solution space.
    const auto unhashed =
        engine.enumerate_cell(0, 100000, Deadline::never(), false);
    EXPECT_EQ(unhashed.count, base) << epoch;
  }
  EXPECT_EQ(engine.stats().solver_rebuilds, 1u);
}

TEST(IncrementalBsat, RetractionRestoresTheModelCount) {
  Rng rng(303);
  const Cnf cnf = random_cnf(8, 16, 3, rng);
  const std::vector<Var> proj{0, 1, 2, 3, 4, 5, 6, 7};
  IncrementalBsat engine(cnf, proj);
  const auto first = engine.enumerate_cell(0, 100000, Deadline::never(), true);
  ASSERT_TRUE(first.exhausted);
  ASSERT_GT(first.count, 0u);
  // The first enumeration blocked every model; retraction must have undone
  // that, or the second pass would find nothing.
  const auto second = engine.enumerate_cell(0, 100000, Deadline::never(), true);
  EXPECT_EQ(second.count, first.count);
  EXPECT_EQ(engine.stats().retracted_blocks, first.count + second.count);
  EXPECT_EQ(engine.stats().reused_solves, 1u);
}

TEST(IncrementalBsat, LearntRetentionKeepsVerdictsCorrect) {
  // Many epochs on CNF+XOR formulas: everything the solver learns in one
  // cell must stay valid in every later cell.
  Rng rng(404);
  const std::vector<Var> proj{0, 1, 2, 3, 4, 5, 6};
  for (int round = 0; round < 6; ++round) {
    const Cnf cnf = random_cnf_xor(9, 16, 3, 2, rng);
    IncrementalBsat engine(cnf, proj);
    for (int epoch = 0; epoch < 8; ++epoch) {
      engine.begin_hash();
      const XorHash h = draw_xor_hash(proj, 4, rng);
      engine.push_rows(h);
      for (std::size_t m : {4u, 1u, 2u}) {
        const auto r =
            engine.enumerate_cell(m, 100000, Deadline::never(), false);
        ASSERT_TRUE(r.exhausted);
        EXPECT_EQ(r.count, reference_cell_count(cnf, h, m, proj))
            << "round " << round << " epoch " << epoch << " m " << m;
      }
    }
  }
}

TEST(IncrementalBsat, GaussReductionSoundWithAbsorberRows) {
  // Formulas whose XOR rows live entirely inside the priority set — the
  // shape that exercises reduce_priority_local_xors with absorber columns.
  Rng rng(505);
  const std::vector<Var> s{0, 1, 2, 3, 4, 5};
  for (int round = 0; round < 10; ++round) {
    Cnf cnf = random_cnf(10, 20, 3, rng);
    cnf.set_sampling_set(s);
    IncrementalBsat engine(cnf, s);
    for (std::size_t m : {1u, 3u, 5u}) {
      engine.begin_hash();
      const XorHash h = draw_xor_hash(s, m, rng);
      engine.push_rows(h);
      const auto r = engine.enumerate_cell(m, 100000, Deadline::never(), true);
      ASSERT_TRUE(r.exhausted);
      EXPECT_EQ(r.count, reference_cell_count(cnf, h, m, s))
          << "round " << round << " m " << m;
      for (const auto& model : r.models) {
        Model truncated = model;
        truncated.resize(static_cast<std::size_t>(cnf.num_vars()));
        EXPECT_TRUE(cnf.satisfied_by(truncated));
      }
    }
  }
}

TEST(IncrementalBsat, UnsatBaseFormulaStaysUnsat) {
  Cnf cnf(2);
  cnf.add_clause({Lit(0, false)});
  cnf.add_clause({Lit(0, true)});
  IncrementalBsat engine(cnf, {0, 1});
  Rng rng(1);
  engine.push_rows(draw_xor_hash({0, 1}, 1, rng));
  EXPECT_EQ(engine.enumerate_cell(0, 10, Deadline::never(), false).count, 0u);
  EXPECT_EQ(engine.enumerate_cell(1, 10, Deadline::never(), false).count, 0u);
}

/// BSAT on a fresh solver loaded with cnf ∧ (first m rows of h).
std::uint64_t fresh_cell_count(const Cnf& cnf, const XorHash& h, std::size_t m,
                               const std::vector<Var>& proj,
                               std::uint64_t max_models) {
  Cnf hashed = cnf;
  for (std::size_t i = 0; i < m; ++i) hashed.add_xor(h.rows[i]);
  Solver solver;
  solver.load(hashed);
  EnumerateOptions opts;
  opts.max_models = max_models;
  opts.projection = proj;
  opts.store_models = false;
  return enumerate_models(solver, opts).count;
}

TEST(IncrementalBsatProperty, ConsecutiveCellsMatchFreshSolverCounts) {
  // Capped and exhaustive cells interleaved on one engine: whatever trail
  // or blocks one call leaves behind must not leak into the next.
  Rng rng(606);
  const std::vector<Var> proj{0, 1, 2, 3, 4, 5, 6, 7};
  for (int round = 0; round < 8; ++round) {
    const Cnf cnf = random_cnf_xor(11, 20, 3, 2, rng);
    IncrementalBsat engine(cnf, proj);
    for (int epoch = 0; epoch < 3; ++epoch) {
      engine.begin_hash();
      const XorHash h = draw_xor_hash(proj, 4, rng);
      engine.push_rows(h);
      const std::pair<std::size_t, std::uint64_t> calls[] = {
          {0, 100000}, {2, 3}, {4, 100000}, {1, 1}, {3, 100000}, {2, 100000}};
      for (const auto& [m, cap] : calls) {
        const auto r = engine.enumerate_cell(m, cap, Deadline::never(), false);
        EXPECT_EQ(r.count, fresh_cell_count(cnf, h, m, proj, cap))
            << "round " << round << " epoch " << epoch << " m " << m;
        EXPECT_EQ(engine.solver().decision_level(), 0);
      }
    }
  }
}

TEST(IncrementalBsatProperty, LimitExitsLeaveLevelZeroAndExactNextCount) {
  Rng rng(707);
  const std::vector<Var> proj{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::atomic<bool> tripped{true};
  int cut_mid_cell = 0;
  for (int round = 0; round < 10; ++round) {
    const Cnf cnf = random_cnf_xor(14, 40, 3, 2, rng);
    IncrementalBsat engine(cnf, proj);
    const XorHash h = draw_xor_hash(proj, 3, rng);
    engine.push_rows(h);
    const std::uint64_t exact = reference_cell_count(cnf, h, 2, proj);

    ProbeLimits one_conflict;
    one_conflict.conflict_budget = 1;
    ProbeLimits expired;
    expired.deadline = Deadline::in_seconds(0.0);
    ProbeLimits cancelled;
    cancelled.cancel = &tripped;
    for (const ProbeLimits& limits : {one_conflict, expired, cancelled}) {
      const auto cut = engine.enumerate_cell(2, 100000, limits, false);
      EXPECT_EQ(engine.solver().decision_level(), 0) << "round " << round;
      if (cut.timed_out && cut.count > 0) ++cut_mid_cell;
      const auto next =
          engine.enumerate_cell(2, 100000, Deadline::never(), false);
      ASSERT_TRUE(next.exhausted) << "round " << round;
      EXPECT_EQ(next.count, exact) << "round " << round;
    }
  }
  // The conflict cap must have cut at least one cell after some models,
  // i.e. from a mid-enumeration trail.
  EXPECT_GT(cut_mid_cell, 0);
}

TEST(IncrementalBsatProperty, HashedSketchCellWorkScalesWithTheSamplingSet) {
  // A simplified sketch keeps hundreds of variables that occur in no clause
  // (eliminated ones) next to a few dozen sampling variables.  A whole
  // hashed cell must neither branch on the unconstrained variables nor
  // block each model on all of S: it makes fewer decisions than the
  // formula has variables, and its blocks average fewer than |S| + 1
  // literals (the full S block plus the cell's selector).
  workloads::SketchOptions o;
  o.spec_input_bits = 5;
  o.selector_bits = 9;
  o.mode_bits = 12;
  o.threshold = 3000;
  o.seed = 11;
  const auto bench = workloads::make_sketch_bench(o, "cell_work");
  const Simplifier simplified(bench.cnf);
  const Cnf& cnf = simplified.result();
  const std::vector<Var> s = cnf.sampling_set_or_all();
  // About 32 witnesses per cell.
  const auto m = static_cast<std::size_t>(bench.witness_count.log2()) - 5;
  Rng rng(42);
  IncrementalBsat engine(cnf, s);
  for (int epoch = 0; epoch < 3; ++epoch) {
    engine.begin_hash();
    engine.push_rows(draw_xor_hash(s, m, rng));
    const std::uint64_t before = engine.stats().decisions;
    const auto r = engine.enumerate_cell(m, 100000, Deadline::never(), false);
    ASSERT_TRUE(r.exhausted);
    ASSERT_GT(r.count, 1u) << "epoch " << epoch;
    EXPECT_LT(engine.stats().decisions - before,
              static_cast<std::uint64_t>(cnf.num_vars()))
        << "epoch " << epoch << ", " << r.count << " models";
    ASSERT_EQ(r.blocks_added, r.count);
    EXPECT_LT(r.block_literals, r.blocks_added * (s.size() + 1))
        << "epoch " << epoch;
  }
}

TEST(IncrementalBsatProperty, UnconstrainedVariableKeepsItsModelValue) {
  // Variable 5 is outside the projection and occurs in no clause, so the
  // engine never branches on it; every model must still report the value
  // branching gave it: its saved phase, negative for a fresh variable.
  Cnf cnf(6);
  cnf.add_clause({Lit(0, false), Lit(1, false)});
  cnf.add_clause({Lit(1, true), Lit(2, false), Lit(3, true)});
  cnf.add_clause({Lit(3, false), Lit(4, false)});
  const std::vector<Var> proj{0, 1, 2, 3, 4};
  Solver plain;
  plain.load(cnf);
  EnumerateOptions opts;
  opts.projection = proj;
  const auto reference = enumerate_models(plain, opts);
  IncrementalBsat engine(cnf, proj);
  const auto r = engine.enumerate_cell(0, 100000, Deadline::never(), true);
  ASSERT_TRUE(r.exhausted);
  ASSERT_EQ(r.count, reference.count);
  ASSERT_GT(r.count, 1u);
  for (const Model& m : reference.models) EXPECT_EQ(m[5], lbool::False);
  for (const Model& m : r.models) EXPECT_EQ(m[5], lbool::False);
}

TEST(ApproxMc, OnePersistentSolverPerRun) {
  // The acceptance criterion of this PR: probe() performs zero Solver
  // constructions per BSAT call — the whole run shares one solver.
  Cnf cnf(14);
  cnf.add_clause({Lit(0, false), Lit(0, true)});
  Rng rng(3);
  const auto r = approx_count(cnf, {}, rng);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.solver_rebuilds, 1u);
  EXPECT_GT(r.bsat_calls, 1u);
  EXPECT_EQ(r.reused_solves, r.bsat_calls - 1);
  EXPECT_GT(r.retracted_blocks, 0u);
}

TEST(UniGen, OnePersistentSolverAcrossSamples) {
  Cnf cnf(10);
  cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
  cnf.add_clause({Lit(3, false), Lit(4, true)});
  cnf.add_clause({Lit(5, false), Lit(6, false), Lit(7, true)});
  cnf.add_clause({Lit(8, false), Lit(9, false), Lit(0, true)});
  Rng rng(7);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  for (int i = 0; i < 25; ++i) sampler.sample();
  const auto& st = sampler.stats();
  EXPECT_GT(st.sample_bsat_calls, 25u);
  // accept_cell() shares one persistent solver across every sample (the
  // engine is built once, in prepare's easy-case check).
  EXPECT_EQ(st.solver_rebuilds, 1u);
  EXPECT_GT(st.reused_solves, 0u);
  EXPECT_GT(st.retracted_blocks, 0u);
  // prepare's ApproxMC run owns the only other solver of the instance.
  EXPECT_EQ(st.counter_solver_rebuilds, 1u);
}

}  // namespace
}  // namespace unigen
