#include "core/xorsample.hpp"

#include <algorithm>

#include "sat/enumerator.hpp"
#include "util/timer.hpp"

namespace unigen {

XorSamplePrime::XorSamplePrime(Cnf cnf, XorSampleOptions options, Rng& rng)
    : cnf_(std::move(cnf)), options_(options), rng_(rng) {
  full_support_.resize(static_cast<std::size_t>(cnf_.num_vars()));
  for (Var v = 0; v < cnf_.num_vars(); ++v)
    full_support_[static_cast<std::size_t>(v)] = v;
}

SampleResult XorSamplePrime::sample() {
  ++stats_.samples_requested;
  const Deadline deadline = Deadline::in_seconds(options_.sample_timeout_s);

  // Draw s XOR rows; each variable joins a row with probability q.
  Cnf hashed = cnf_;
  for (std::size_t row = 0; row < options_.s; ++row) {
    std::vector<Var> vars;
    for (const Var v : full_support_) {
      if (rng_.flip(options_.q)) vars.push_back(v);
    }
    stats_.total_xor_row_length += static_cast<double>(vars.size());
    ++stats_.total_xor_rows;
    if (vars.empty()) {
      if (rng_.flip()) {
        // Constant-false row: empty cell, sample fails outright.
        ++stats_.samples_failed;
        return SampleResult::failure();
      }
      continue;  // constant-true row constrains nothing
    }
    hashed.add_xor(std::move(vars), rng_.flip());
  }

  // Enumerate the cell exhaustively and pick uniformly.
  Solver solver;
  solver.load(hashed);
  EnumerateOptions eopts;
  eopts.max_models = options_.cell_bound + 1;
  eopts.deadline = deadline;
  eopts.projection = full_support_;
  eopts.store_models = true;
  EnumerateResult r = enumerate_models(solver, eopts);
  ++stats_.bsat_calls;

  if (r.timed_out) {
    ++stats_.samples_timed_out;
    return SampleResult::timeout();
  }
  if (r.count == 0 || r.count > options_.cell_bound) {
    // Empty cell (s too large / unlucky) or oversized cell (s too small).
    ++stats_.samples_failed;
    return SampleResult::failure();
  }
  std::sort(r.models.begin(), r.models.end(), model_lex_less);
  const auto j = rng_.below(r.models.size());
  ++stats_.samples_ok;
  return SampleResult::success(std::move(r.models[j]));
}

}  // namespace unigen
