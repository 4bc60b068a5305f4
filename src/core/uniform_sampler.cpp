#include "core/uniform_sampler.hpp"

#include <algorithm>

#include "sat/enumerator.hpp"

namespace unigen {

UniformSampler::UniformSampler(Cnf cnf, UniformSamplerOptions options,
                               Rng& rng)
    : cnf_(std::move(cnf)),
      sampling_set_(cnf_.sampling_set_or_all()),
      options_(options),
      rng_(rng) {}

bool UniformSampler::prepare() {
  if (prepared_) return !timed_out_;
  prepared_ = true;
  const Deadline deadline = Deadline::in_seconds(options_.timeout_s);

  // Prefer materialization: it both counts and enables witness output.
  {
    Solver solver;
    solver.load(cnf_);
    EnumerateOptions eopts;
    eopts.max_models = options_.materialize_bound + 1;
    eopts.deadline = deadline;
    eopts.projection = sampling_set_;
    eopts.store_models = true;
    const EnumerateResult r = enumerate_models(solver, eopts);
    if (r.timed_out) {
      timed_out_ = true;
      return false;
    }
    if (r.exhausted) {
      models_ = r.models;
      std::sort(models_.begin(), models_.end(), model_lex_less);
      count_ = BigUint(r.count);
      materialized_ = true;
      return true;
    }
  }

  // Too many witnesses to materialize: exact count only.  Note the counter
  // works over the full variable space; with S an independent support this
  // equals the projected count.
  ExactCounterOptions copts;
  copts.deadline = deadline;
  ExactCounter counter(copts);
  const auto counted = counter.count(cnf_);
  if (!counted.has_value()) {
    timed_out_ = true;
    return false;
  }
  count_ = *counted;
  return true;
}

SampleResult UniformSampler::sample() {
  if (!prepare()) return SampleResult::timeout();
  if (count_.is_zero()) return SampleResult::unsat();
  if (!materialized_) return SampleResult::failure();
  const auto j = rng_.below(models_.size());
  return SampleResult::success(models_[j]);
}

BigUint UniformSampler::sample_index() {
  if (!prepare() || count_.is_zero()) return BigUint{};
  return BigUint::random_below(count_, rng_);
}

}  // namespace unigen
