#include "core/uniwit.hpp"

#include <algorithm>

#include "hashing/xor_hash.hpp"
#include "sat/incremental_bsat.hpp"
#include "util/timer.hpp"

namespace unigen {

UniWit::UniWit(Cnf cnf, UniWitOptions options, Rng& rng)
    : cnf_(std::move(cnf)), options_(options), rng_(rng) {
  full_support_.resize(static_cast<std::size_t>(cnf_.num_vars()));
  for (Var v = 0; v < cnf_.num_vars(); ++v)
    full_support_[static_cast<std::size_t>(v)] = v;
}

bool UniWit::prepare() {
  if (!prepared_) {
    kp_ = compute_kappa_pivot(options_.epsilon);
    // The formula-level shrink is shared across samples (it is a pure
    // function of the input, not per-witness amortization — UniWit still
    // pays the easy-case check and the full m-scan on every sample).
    // Freezing the full support limits the pipeline to model-set-
    // preserving passes, which is what UniWit's full-support hashing and
    // blocking require.
    if (options_.simplify.enabled) {
      simplifier_.emplace(cnf_, options_.simplify, full_support_);
      stats_.simplify = simplifier_->stats();
    }
    prepared_ = true;
  }
  return true;
}

SampleResult UniWit::sample() {
  prepare();
  ++stats_.samples_requested;
  const Stopwatch watch;
  const Deadline deadline = Deadline::in_seconds(options_.sample_timeout_s);

  auto finish = [&](SampleResult r) {
    stats_.sample_seconds += watch.seconds();
    switch (r.status) {
      case SampleResult::Status::kOk:
        ++stats_.samples_ok;
        break;
      case SampleResult::Status::kFail:
        ++stats_.samples_failed;
        break;
      case SampleResult::Status::kTimeout:
        ++stats_.samples_timed_out;
        break;
      case SampleResult::Status::kUnsat:
        break;
      case SampleResult::Status::kCancelled:
        // UniWit takes no cancellation token; nothing produces this here.
        break;
    }
    return r;
  };

  // One engine per sample() call: UniWit by design amortizes nothing
  // ACROSS witnesses (that is the baseline the paper argues against), but
  // within a single witness's m-scan the engine still avoids re-copying
  // the CNF and rebuilding a solver for every hash level.
  const Cnf& formula = simplifier_ ? simplifier_->result() : cnf_;
  IncrementalBsat engine(formula, full_support_);
  // Canonical draw: sort the cell before the index, so the witness does
  // not depend on the order the solver enumerated the cell in.
  auto draw_witness = [&](std::vector<Model>& cell) {
    std::sort(cell.begin(), cell.end(), model_lex_less);
    const auto j = rng_.below(cell.size());
    return project_model_to_formula(std::move(cell[j]), cnf_.num_vars());
  };
  auto bounded_enumerate = [&](std::size_t level,
                               EnumerateResult& out) -> bool {
    const double budget =
        std::min(options_.bsat_timeout_s, deadline.remaining_seconds());
    out = engine.enumerate_cell(level, kp_.hi_thresh + 1,
                                Deadline::in_seconds(budget), true);
    ++stats_.bsat_calls;
    return !out.timed_out;
  };

  // Easy case: few enough witnesses overall.  UniWit pays for this check on
  // EVERY sample — nothing is cached across calls.
  EnumerateResult base;
  if (!bounded_enumerate(0, base)) return finish(SampleResult::timeout());
  if (base.count == 0) return finish(SampleResult::unsat());
  if (base.count <= kp_.hi_thresh) {
    return finish(SampleResult::success(draw_witness(base.models)));
  }

  // Sequential scan over m, hashing over the FULL support: fresh for every
  // witness, long XOR rows (~|X|/2).
  const int n = cnf_.num_vars();
  for (int m = 1; m <= n; ++m) {
    if (deadline.expired()) return finish(SampleResult::timeout());
    const XorHash hash =
        draw_xor_hash(full_support_, static_cast<std::size_t>(m), rng_);
    stats_.total_xor_rows += hash.m();
    stats_.total_xor_row_length +=
        hash.average_row_length() * static_cast<double>(hash.m());
    engine.begin_hash();
    engine.push_rows(hash);
    EnumerateResult cell;
    if (!bounded_enumerate(static_cast<std::size_t>(m), cell)) {
      --m;  // BSAT timeout: retry the same m with a fresh hash
      if (deadline.expired()) return finish(SampleResult::timeout());
      continue;
    }
    if (cell.count >= 1 && cell.count <= kp_.hi_thresh) {
      return finish(SampleResult::success(draw_witness(cell.models)));
    }
    if (cell.count == 0) break;  // cells only shrink; give up (⊥)
  }
  return finish(SampleResult::failure());
}

}  // namespace unigen
