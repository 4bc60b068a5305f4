#include "counting/parallel_approxmc.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "obs/trace.hpp"
#include "service/process_fleet.hpp"
#include "service/worker_pool.hpp"

namespace unigen {
namespace {

bool is_settled(const ParallelCountControl& control, std::size_t i) {
  return control.settled != nullptr && (*control.settled)[i];
}

/// The process-fleet backend: ships the unsettled iterations to supervised
/// worker processes.  Each task frame carries its iteration's raw RNG state
/// and the shared Setup carries the canonical formula, so every outcome is
/// the same pure function of its stream the pool computes — a worker crash
/// costs one retry, a poisoned task just leaves its slot unsettled for the
/// caller's fold.  False when no worker could be started.
bool run_on_fleet(const Cnf& formula, const std::vector<Var>& sampling_set,
                  const ApproxMcOptions& options, std::size_t threads,
                  const Rng& iter_base, std::uint64_t pivot,
                  std::vector<ApproxMcCoreOutcome>& outcomes,
                  const ParallelCountControl& control) {
  ProcessFleet fleet(options.fleet);
  if (!fleet.start(ProcessFleet::make_count_setup(formula, sampling_set, pivot),
                   threads))
    return false;
  // Trace propagation (observability only): worker spans land under the
  // caller's count.request span, in its trace.
  const obs::TraceContext tctx = obs::current_context();
  std::vector<ProcessFleet::TaskSpec> specs;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (is_settled(control, i)) continue;
    ProcessFleet::TaskSpec s;
    s.id = i;
    s.rng_state = iter_base.fork_stream(i).state();
    s.trace_id = tctx.trace_id;
    s.parent_span = tctx.span_id;
    specs.push_back(s);
  }
  ProcessFleet::RunControl run_control;
  run_control.units_granted = control.units_granted;
  run_control.units_spent = control.units_spent;
  const std::vector<ProcessFleet::TaskOutcome> served =
      fleet.run(specs, options.budget, &run_control);
  for (std::size_t j = 0; j < served.size(); ++j)
    if (served[j].served)  // poisoned/cut → stays unsettled
      outcomes[specs[j].id] = ipc::unpack_count(served[j].result);
  return true;
}

}  // namespace

void parallel_approxmc_iterations(const Cnf& formula,
                                  const std::vector<Var>& sampling_set,
                                  const ApproxMcOptions& options,
                                  const Rng& iter_base,
                                  std::unique_ptr<IncrementalBsat> warm_engine,
                                  std::vector<ApproxMcCoreOutcome>& outcomes,
                                  ApproxMcResult& result,
                                  const ParallelCountControl& control) {
  const auto n = static_cast<std::uint32_t>(sampling_set.size());
  const std::uint64_t pivot = result.pivot;
  const Budget& budget = options.budget;
  WorkerPool* pool = options.shared_pool;

  // More workers than iterations would only build idle engines.
  const std::size_t threads = std::min(
      options.num_threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : options.num_threads,
      outcomes.size());

  if (options.fleet.backend == ExecBackend::kProcessFleet && pool == nullptr &&
      run_on_fleet(formula, sampling_set, options, threads, iter_base, pivot,
                   outcomes, control)) {
    if (warm_engine) fold_solver_stats(result, warm_engine->stats());
    return;
  }

  // The leapfrog hint: the last completed iteration's m, 0 while none has
  // finished.  Racy on purpose — the hint only steers where the search
  // starts, never what it finds (approxmc_core.hpp), so a relaxed atomic
  // is all the coordination the fan-out needs.  Publication goes through
  // leapfrog_publish, so a cut iteration (timeout, fault, cancel) never
  // seeds later searches.  Deterministic-budget runs bypass the hint
  // entirely (control.cold_starts).
  std::atomic<std::uint32_t> hint{0};
  const auto publish = [&hint, &control](const ApproxMcCoreOutcome& o) {
    if (control.cold_starts) return;
    if (const auto m = leapfrog_publish(o))
      hint.store(*m, std::memory_order_relaxed);
  };
  // A resume's settled iterations seed the hint before anything runs.
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    if (is_settled(control, i)) publish(outcomes[i]);
  // Unit ledger shared by the workers.  Like the hint it is only advisory
  // here (stop starting work the grant can no longer cover); the canonical
  // admission fold in approxmc.cpp re-derives the charged prefix
  // schedule-independently.
  std::atomic<std::uint64_t> spent{control.units_spent};

  // The warm-handoff seam: a shared pool (session server, SamplerPool)
  // lends its workers — and keeps the engines this fan-out warms — instead
  // of this call building N solvers only to discard them on return.
  std::optional<WorkerPool> owned;
  if (pool == nullptr) {
    owned.emplace(threads, iter_base);
    owned->start(formula, sampling_set, std::move(warm_engine));
    pool = &*owned;
  }
  pool->run(outcomes.size(), /*first_stream=*/0,
            [&](IncrementalBsat& engine, std::size_t /*worker*/,
                std::size_t i, Rng& rng) {
              if (is_settled(control, i)) return;
              if (budget.cancelled()) return;       // slot stays "skipped"
              if (budget.wall_expired()) return;
              if (control.units_granted != 0 &&
                  spent.load(std::memory_order_relaxed) >=
                      control.units_granted)
                return;
              const std::uint32_t start_m =
                  control.cold_starts
                      ? 0
                      : hint.load(std::memory_order_relaxed);
              outcomes[i] = approxmc_core_iteration(engine, n, pivot, options,
                                                    start_m, rng,
                                                    /*fault_key=*/i);
              spent.fetch_add(outcomes[i].bsat_calls,
                              std::memory_order_relaxed);
              publish(outcomes[i]);
            },
            budget.cancel != nullptr ? budget.cancel->flag() : nullptr,
            // Iteration streams fork from iter_base whoever owns the pool:
            // a shared pool's base generator keys a *different* stream
            // space (its embedding's requests), and iteration i must draw
            // the same randomness on both ownership paths.
            &iter_base);

  result.threads_used = pool->num_threads();
  result.workers.reserve(pool->num_threads());
  // Aggregate through SolverStats::merge (the path the coverage test in
  // tests/test_solver_stats.cpp guards), then project into the flat result
  // fields through fold_solver_stats — counters added to SolverStats
  // cannot silently drop out of pooled totals.  On a shared pool these are
  // the engines' *lifetime* counters (they may include the embedding's
  // earlier probes — diagnostics, not part of any byte-identity contract).
  SolverStats total;
  for (std::size_t w = 0; w < pool->num_threads(); ++w) {
    result.workers.push_back(pool->engine_stats(w));
    total.merge(result.workers.back());
  }
  fold_solver_stats(result, total);
}

}  // namespace unigen
