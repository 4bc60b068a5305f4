#include "sat/enumerator.hpp"

#include <algorithm>

namespace unigen {

namespace {

/// Decision-literal blocking (Toda & Soh, JEA 2016).  Let L be the highest
/// level of any projection variable under the model just found.  When
/// every level in (num_assumptions, L] was opened by a decision on a
/// projection variable, unit propagation from those decisions — under the
/// assumptions, the formula and the cell's earlier blocks — set the rest of
/// the projection, so negating them excludes exactly this S-projection.
/// Appends those negated decisions to `out` and returns true; returns false
/// (with `out` partly filled) when some level in that range is not such a
/// decision.
bool block_on_decisions(const Solver& solver, const Model& m,
                        const std::vector<Var>& projection,
                        int num_assumptions, std::vector<Lit>& out) {
  int top = 0;
  for (const Var v : projection) {
    const int level = solver.level(v);
    top = std::max(top, level);
    if (level > num_assumptions && solver.assigned_by_decision(v))
      out.push_back(Lit(v, m[static_cast<std::size_t>(v)] == lbool::True));
  }
  // One decision opens each level, so the count is the number of levels in
  // (num_assumptions, top] whose decision is a projection variable.
  return static_cast<int>(out.size()) == std::max(top - num_assumptions, 0);
}

/// The enumeration loop proper.  May leave the solver above level 0; the
/// caller unwinds on every exit.
void run_search(Solver& solver, const EnumerateOptions& options,
                const std::vector<Var>& projection, EnumerateResult& result) {
  std::vector<Lit> blocking;
  blocking.reserve(projection.size() + 1);
  // A decision-only block is exact just under the assumptions it was found
  // under, so it needs the activation literal that confines it to this
  // call — unless there are no assumptions to depend on.
  const bool decision_blocks =
      options.block_activation.valid() || options.assumptions.empty();
  const auto num_assumptions = static_cast<int>(options.assumptions.size());
  const auto cancelled = [&options] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_acquire);
  };
  while (result.count < options.max_models) {
    if (cancelled()) {
      result.cancelled = true;
      return;
    }
    if (options.deadline.expired()) {
      result.timed_out = true;
      return;
    }
    const lbool status =
        solver.next_model(options.assumptions, options.deadline,
                          options.conflict_budget, options.cancel);
    if (status == lbool::Undef) {
      // Undef = some limit fired mid-search; the flag says which caller
      // intent it was (a tripped token wins over a concurrently expired
      // budget — the caller asked to stop either way).
      if (cancelled())
        result.cancelled = true;
      else
        result.timed_out = true;
      return;
    }
    if (status == lbool::False) {
      result.exhausted = true;
      return;
    }
    const Model& m = solver.model();
    ++result.count;
    if (options.store_models) result.models.push_back(m);

    // Block this S-projection: on its S decisions when they force the
    // rest of S, otherwise on all of S (some sampling variable must differ).
    blocking.clear();
    if (!decision_blocks ||
        !block_on_decisions(solver, m, projection, num_assumptions,
                            blocking)) {
      blocking.clear();
      for (const Var v : projection) {
        const lbool val = m[static_cast<std::size_t>(v)];
        blocking.push_back(Lit(v, val == lbool::True));
      }
    }
    if (options.block_activation.valid())
      blocking.push_back(options.block_activation);
    if (!solver.block_model(blocking)) {
      result.exhausted = true;  // blocking made the formula UNSAT
      return;
    }
    ++result.blocks_added;
    result.block_literals += blocking.size();
  }
  // Hit max_models; the space may or may not be exhausted.
}

}  // namespace

EnumerateResult enumerate_models(Solver& solver,
                                 const EnumerateOptions& options) {
  EnumerateResult result;
  std::vector<Var> projection = options.projection;
  if (projection.empty()) {
    projection.resize(static_cast<std::size_t>(solver.num_vars()));
    for (Var v = 0; v < solver.num_vars(); ++v)
      projection[static_cast<std::size_t>(v)] = v;
  }
  // Projection-aware branching: decide the sampling set first so that the
  // dependent variables follow by propagation and parity conflicts stay
  // shallow.  Skipped when the projection is large (the linear priority
  // scan would dominate) or trivial — triviality is judged against the
  // formula's own variable count, not the solver's (which includes engine
  // auxiliaries on the incremental path).
  const auto formula_vars = static_cast<std::size_t>(
      options.formula_vars > 0 ? options.formula_vars : solver.num_vars());
  if (projection.size() < formula_vars && projection.size() <= 4096)
    solver.set_priority_vars(projection);

  // One search per cell: each model is blocked where it was found and the
  // search resumes from the blocking clause's asserting level.
  run_search(solver, options, projection, result);
  solver.backtrack_to_root();
  return result;
}

EnumerateResult bsat(const Cnf& cnf, std::uint64_t max_models,
                     const Deadline& deadline) {
  Solver solver;
  solver.load(cnf);
  EnumerateOptions options;
  options.max_models = max_models;
  options.deadline = deadline;
  options.projection = cnf.sampling_set_or_all();
  return enumerate_models(solver, options);
}

}  // namespace unigen
