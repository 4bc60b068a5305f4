#pragma once
// Common interface for probabilistic witness generators (paper Section 2).
// All samplers in src/core/ — UniGen, UniWit, XORSample', and the ideal US —
// implement it, which is what lets the benchmark harnesses compare them
// uniformly.

#include <algorithm>
#include <cstdint>
#include <string>

#include "cnf/types.hpp"

namespace unigen {

/// Lexicographic order on equal-length total assignments.  lbool's
/// underlying values (False=0, True=1) make this the natural 0/1-string
/// order over the formula variables.  Samplers sort an enumerated cell
/// with it before drawing an index, so a seed-fixed stream does not depend
/// on the order the solver happened to find the cell's models in.
inline bool model_lex_less(const Model& a, const Model& b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(), [](lbool x, lbool y) {
        return static_cast<std::uint8_t>(x) < static_cast<std::uint8_t>(y);
      });
}

struct SampleResult {
  enum class Status {
    kOk,         ///< `witness` holds a satisfying assignment
    kFail,       ///< the generator returned ⊥ (allowed; bounded probability)
    kTimeout,    ///< a resource budget expired
    kUnsat,      ///< the formula has no witnesses
    kCancelled,  ///< the caller's cancellation token fired
  };
  Status status = Status::kFail;
  Model witness;

  bool ok() const { return status == Status::kOk; }

  static SampleResult failure() { return {}; }
  static SampleResult timeout() {
    SampleResult r;
    r.status = Status::kTimeout;
    return r;
  }
  static SampleResult cancelled() {
    SampleResult r;
    r.status = Status::kCancelled;
    return r;
  }
  static SampleResult unsat() {
    SampleResult r;
    r.status = Status::kUnsat;
    return r;
  }
  static SampleResult success(Model witness) {
    SampleResult r;
    r.status = Status::kOk;
    r.witness = std::move(witness);
    return r;
  }
};

class WitnessSampler {
 public:
  virtual ~WitnessSampler() = default;

  /// One-time per-formula work (UniGen lines 1–11).  Returns false when the
  /// sampler could not get ready within its budgets; sample() then reports
  /// kTimeout.  Idempotent.
  virtual bool prepare() = 0;

  /// Draws one witness (UniGen lines 12–22).
  virtual SampleResult sample() = 0;

  virtual std::string name() const = 0;
};

}  // namespace unigen
