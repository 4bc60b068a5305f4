#include "sat/incremental_bsat.hpp"

#include <atomic>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace unigen {

namespace {
std::atomic<std::uint64_t> g_total_constructions{0};
}  // namespace

IncrementalBsat::IncrementalBsat(const Cnf& cnf, std::vector<Var> projection,
                                 IncrementalBsatOptions options)
    : cnf_(cnf), projection_(std::move(projection)), options_(options) {
  g_total_constructions.fetch_add(1, std::memory_order_relaxed);
  if (projection_.empty()) {
    projection_.resize(static_cast<std::size_t>(cnf_.num_vars()));
    for (Var v = 0; v < cnf_.num_vars(); ++v)
      projection_[static_cast<std::size_t>(v)] = v;
  }
  rebuild();
}

std::uint64_t IncrementalBsat::total_constructions() {
  return g_total_constructions.load(std::memory_order_relaxed);
}

void IncrementalBsat::rebuild() {
  // Only ever happens between hash epochs (constructor or begin_hash), so
  // there are no active rows to carry over.
  assert(activations_.empty());
  if (solver_) accum_.merge(solver_->stats());
  solver_ = std::make_unique<Solver>();
  solver_->load(cnf_);
  // A variable outside the projection that occurs in no clause or XOR
  // (e.g. one the simplifier eliminated) constrains nothing: never branch
  // on it.  Its model value stays its saved phase, as when it was decided.
  std::vector<char> occurs(static_cast<std::size_t>(cnf_.num_vars()), 0);
  for (const Var v : projection_) occurs[static_cast<std::size_t>(v)] = 1;
  for (const auto& clause : cnf_.clauses())
    for (const Lit l : clause) occurs[static_cast<std::size_t>(l.var())] = 1;
  for (const auto& x : cnf_.xors())
    for (const Var v : x.vars) occurs[static_cast<std::size_t>(v)] = 1;
  for (Var v = 0; v < cnf_.num_vars(); ++v) {
    if (!occurs[static_cast<std::size_t>(v)])
      solver_->set_decision_var(v, false);
  }
  ++accum_.solver_rebuilds;
  solves_on_build_ = 0;
  retired_rows_ = 0;
}

void IncrementalBsat::begin_hash() {
  retired_rows_ += activations_.size();
  if (retired_rows_ > options_.max_retired_rows) {
    // The rebuild replaces the solver wholesale; skip the (discarded)
    // retirement elimination and learnt trim.
    activations_.clear();
    rebuild();
    return;
  }
  std::vector<Var> absorbers;
  absorbers.reserve(activations_.size());
  for (const Lit a : activations_) absorbers.push_back(a.var());
  solver_->retire_rows(absorbers);
  solver_->shrink_learnts(options_.learnts_across_epochs);
  activations_.clear();
}

void IncrementalBsat::push_rows(const XorHash& h) {
  // A row over a non-decision variable would leave it undecided.
  for (const auto& row : h.rows)
    for (const Var v : row.vars) solver_->set_decision_var(v, true);
  h.attach_to(*solver_, activations_);
}

EnumerateResult IncrementalBsat::enumerate_cell(std::size_t m,
                                                std::uint64_t max_models,
                                                const Deadline& deadline,
                                                bool store_models) {
  ProbeLimits limits;
  limits.deadline = deadline;
  return enumerate_cell(m, max_models, limits, store_models);
}

EnumerateResult IncrementalBsat::enumerate_cell(std::size_t m,
                                                std::uint64_t max_models,
                                                const ProbeLimits& limits,
                                                bool store_models) {
  assert(m <= activations_.size());
  // Observability only (outside every RNG path): one span + latency sample
  // per BSAT call, tagged with the hash level probed.
  static obs::Counter& cells = obs::metrics().counter("bsat.cells");
  static obs::Histogram& cell_seconds =
      obs::metrics().histogram("cell.enumeration_seconds");
  cells.add();
  obs::ScopedTimer cell_timer(cell_seconds);
  obs::Span span("bsat.call");
  span.set_value(m);
  EnumerateOptions eopts;
  eopts.max_models = max_models;
  eopts.deadline = limits.deadline;
  eopts.conflict_budget = limits.conflict_budget;
  eopts.cancel = limits.cancel;
  eopts.projection = projection_;
  eopts.store_models = store_models;
  eopts.formula_vars = cnf_.num_vars();
  eopts.assumptions.assign(activations_.begin(),
                           activations_.begin() +
                               static_cast<std::ptrdiff_t>(m));
  // Per-cell selector: every blocking clause of this cell contains the
  // positive selector, enumeration assumes its negation, and one unit
  // afterwards retracts the whole cell's blocks.
  const Var selector = solver_->new_var();
  eopts.assumptions.push_back(Lit(selector, true));
  eopts.block_activation = Lit(selector, false);

  const EnumerateResult result = enumerate_models(*solver_, eopts);

  // The unit is added even for empty cells: it freezes the selector at the
  // root, so later solves never branch on it.
  solver_->add_clause({Lit(selector, false)});
  if (result.blocks_added > 0) {
    solver_->simplify();  // the unit satisfied all of this cell's blocks;
                          // sweep them (and any stale learnts) out
    accum_.retracted_blocks += result.blocks_added;
  }
  if (++solves_on_build_ > 1) ++accum_.reused_solves;
  return result;
}

SolverStats IncrementalBsat::stats() const {
  SolverStats merged = accum_;
  merged.merge(solver_->stats());
  return merged;
}

}  // namespace unigen
