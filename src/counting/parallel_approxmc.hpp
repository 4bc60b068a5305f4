#pragma once
// The fan-out of ApproxMC's median iterations — the one dispatch every
// count goes through, whatever its width or backend.
//
// Algorithm 1 of the paper blocks on one ApproxMC call before any sample
// can be served, and ApproxMC itself is t independent median iterations —
// the same independence that makes sampling embarrassingly parallel
// (UniGen2's observation) applies verbatim to the counting phase.  This
// module runs the t ApproxMcCore iterations on one of two backends:
//
//   * the in-process WorkerPool (every width, 1 included): each worker
//     owns one lazily-built IncrementalBsat over the shared (already
//     simplified) formula, and worker 0 adopts the engine the exact-count
//     prologue warmed up, so every worker builds exactly one solver
//     (ApproxMcResult::workers[i].solver_rebuilds == 1);
//   * the supervised process fleet (ApproxMcOptions::fleet), which ships
//     each iteration's raw RNG state to a unigen_workerd child.
//
// Iteration i draws everything from keyed stream i on both backends, so
// its outcome is schedule- and location-independent.  On the pool, the
// hash-count search of each iteration starts leapfrogged from the last
// *completed* iteration's m (ApproxMC2's leapfrogging; a relaxed atomic,
// cold gallop while none has finished).  Monotonicity of nested-prefix
// cells (approxmc_core.hpp) makes the starting point a pure probe-count
// optimization, so the racy hint is harmless: any hint value yields the
// same outcome, just fewer or more probes.  The fleet always cold-starts.
//
// Net effect: approx_count returns byte-identical counts for every
// options.num_threads and on both backends, while wall-clock scales with
// min(N, cores) and total BSAT probes stay within a leapfrog miss or two
// of the 1-worker run (tracked by leapfrog_warm/cold_starts and
// bench/bench_parallel_count.cpp).
//
// Entry point for callers is approx_count (counting/approxmc.hpp), which
// dispatches here; this header exists for that dispatcher.

#include <cstdint>
#include <memory>
#include <vector>

#include "cnf/cnf.hpp"
#include "counting/approxmc.hpp"
#include "counting/approxmc_core.hpp"
#include "sat/incremental_bsat.hpp"
#include "util/rng.hpp"

namespace unigen {

/// Anytime control of one fan-out; defaults reproduce the unbudgeted run.
struct ParallelCountControl {
  /// Slots to skip (already settled by an earlier grant); null = none.
  const std::vector<char>* settled = nullptr;
  /// Cumulative deterministic unit grant (0 = unlimited): the backend stops
  /// *starting* iterations once the shared spent-counter reaches it.  The
  /// check is racy by design — work conservation only; the caller's
  /// canonical admission fold decides what the grant actually bought.
  std::uint64_t units_granted = 0;
  /// Units already charged (prologue + previously settled iterations).
  std::uint64_t units_spent = 0;
  /// Deterministic mode: every iteration starts cold (start_m = 0) instead
  /// of chasing the racy shared hint, so its probe count is a pure
  /// function of its stream (approxmc_core.hpp) at every thread count.
  bool cold_starts = false;
};

/// Runs the unsettled ones of `outcomes.size()` core iterations and fills
/// their slots.  The slot contract is the same on both backends:
///   * settled slots (control.settled) are skipped, never re-run;
///   * no iteration starts once the unit grant is spent, the cancel token
///     has tripped or the wall deadline (options.budget) has expired —
///     slots left that way stay default-valued (bsat_calls == 0), as do a
///     fleet's poisoned tasks;
///   * iteration i draws from iter_base.fork_stream(i), reports to the
///     fault plan under key i, and lands in slot i — canonical order,
///     whatever the schedule.
/// Median, settlement and leapfrog accounting stay with the caller, which
/// folds `outcomes` the same way for every schedule.
///
/// Backend choice: the process fleet when options.fleet asks for it,
/// options.shared_pool is null and at least one worker starts; the
/// in-process WorkerPool otherwise.  `formula` must be the (possibly
/// simplified) formula the prologue probed and must outlive the call;
/// `warm_engine` is the prologue's engine (null with a shared pool).
/// The pool backend folds its per-worker engine counters into `result`
/// (workers, the flat solver_* fields, and threads_used); the fleet
/// backend folds only `warm_engine`'s (its workers are external).  On a
/// resume without cold starts, settled slots' m's seed the hint before
/// any iteration runs, so resumed iterations start warm.
///
/// Pool ownership: with options.shared_pool (an already-started WorkerPool
/// over the same `formula`/`sampling_set`) the fan-out runs on *its*
/// workers — options.num_threads is ignored (the embedding already seeded
/// worker 0 when it started the pool), engines warmed here stay warm for
/// whatever the pool serves next, and task streams still fork from
/// `iter_base` (WorkerPool::run's stream_base override), so the outcome
/// bytes are identical to a private pool's.  Without it the call builds a
/// transient pool of min(options.num_threads, iterations) workers
/// (0 = hardware concurrency).
void parallel_approxmc_iterations(const Cnf& formula,
                                  const std::vector<Var>& sampling_set,
                                  const ApproxMcOptions& options,
                                  const Rng& iter_base,
                                  std::unique_ptr<IncrementalBsat> warm_engine,
                                  std::vector<ApproxMcCoreOutcome>& outcomes,
                                  ApproxMcResult& result,
                                  const ParallelCountControl& control = {});

}  // namespace unigen
