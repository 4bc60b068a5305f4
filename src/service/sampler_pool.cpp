#include "service/sampler_pool.hpp"

#include <algorithm>
#include <optional>

#include "obs/trace.hpp"
#include "service/process_fleet.hpp"
#include "util/timer.hpp"

namespace unigen {

// What one fan-out is about: the result slots (exactly one of `singles` /
// `batches` is set), the batch cap (0 = singles) and the call's effective
// options (the per-call budget lives in options->budget).  The
// thread/cursor machinery lives in WorkerPool.
struct SamplerPool::Job {
  std::size_t max_batch = 0;
  const UniGenOptions* options = nullptr;
  std::uint64_t first_stream = 0;
  std::vector<SampleResult>* singles = nullptr;
  std::vector<BatchResult>* batches = nullptr;
  /// served[k] == 1 iff request k actually ran (a budget cut can leave a
  /// slot untouched; finish_job stamps those with their honest status).
  /// Each slot is written by exactly one worker, read after quiescence.
  std::vector<char> served;
};

BatchResult finish_request_from_cell(AcceptCellResult r, std::size_t max_batch,
                                     Rng& rng) {
  BatchResult out;
  out.status = sample_status_from_request(r.status);
  if (!r.ok()) return out;
  if (max_batch == 0) {
    out.models.push_back(std::move(r.cell[rng.below(r.cell.size())]));
  } else {
    rng.shuffle(r.cell);
    if (r.cell.size() > max_batch) r.cell.resize(max_batch);
    out.models = std::move(r.cell);
  }
  return out;
}

SamplerPool::SamplerPool(Cnf cnf, SamplerPoolOptions options)
    : cnf_(std::move(cnf)),
      sampling_set_(cnf_.sampling_set_or_all()),
      options_(options),
      pool_(options.num_threads, Rng(options.seed)) {
  worker_ugstats_.resize(pool_.num_threads());
  fleet_served_.resize(pool_.num_threads());
}

SamplerPool::~SamplerPool() = default;

bool SamplerPool::prepare() { return prepare(options_.unigen.budget); }

bool SamplerPool::prepare(const Budget& budget) {
  if (prepared_) return prep_.usable();
  // Observability only: the one-time phase (simplify + easy-case check +
  // nested count) as one span; the count.request span nests under it.
  obs::Span prepare_span("pool.prepare",
                         obs::trace_id_for_request(options_.seed, 0));
  Rng prepare_rng = pool_.fork_stream(0);
  // The one-time ApproxMC call fans its median iterations across this
  // pool's *own* workers — the warm handoff: unigen_prepare starts pool_
  // itself (worker 0 adopting the easy-case engine) and the count warms the
  // very engines that will serve samples, so exactly one solver is built
  // per worker over the pool lifetime.  The count is byte-identical across
  // widths, so q — and every sample downstream — is too; sample bytes are
  // untouched by the richer learnt history (canonical cell ordering).
  UniGenOptions unigen_options = options_.unigen;
  unigen_options.budget = budget;
  unigen_options.shared_pool = &pool_;
  // Hashed mode started pool_ inside unigen_prepare, which then returns no
  // engine: the easy-case engine lives on as worker 0's.
  unigen_prepare(cnf_, sampling_set_, unigen_options, prepare_rng, prep_,
                 prepare_stats_);
  prepared_ = true;
  if (prep_.mode == UniGenPrepared::Mode::kHashed) {
    // Crash-isolated backend: bring up the worker processes now, shipping
    // the ORIGINAL formula plus the simplify options — each worker re-runs
    // the deterministic pipeline, reproducing the shrunk formula and the
    // reconstruction stack prepare() computed here.  The nested count
    // above always ran in-process (the warm handoff); only the per-sample
    // fan-out moves out of process.  Start failure (no unigen_workerd
    // binary, fork failure) leaves fleet_ null: requests silently serve
    // from pool_ — graceful degradation, not an error.
    if (options_.unigen.fleet.backend == ExecBackend::kProcessFleet) {
      auto fleet = std::make_unique<ProcessFleet>(options_.unigen.fleet);
      if (fleet->start(ProcessFleet::make_sample_setup(
                           cnf_, sampling_set_, prep_, options_.unigen),
                       pool_.num_threads()))
        fleet_ = std::move(fleet);
    }
  }
  prepare_tasks_.resize(pool_.num_threads(), 0);
  for (std::size_t w = 0; w < pool_.num_threads(); ++w)
    prepare_tasks_[w] = pool_.tasks_served(w);
  return prep_.usable();
}

void SamplerPool::serve(IncrementalBsat& engine, std::size_t worker, Job& job,
                        std::size_t k, Rng& rng) {
  // Call-level cuts are observed between requests: a request that has not
  // started when the deadline or token fires stays unserved, and
  // finish_job stamps its honest status after the pool quiesces.
  const Budget& budget = job.options->budget;
  if (budget.cancelled() || budget.wall_expired()) return;
  // Workers solve the formula prepare() simplified (prep_ owns it and
  // outlives every engine); accept_cell reconstructs the witnesses, so the
  // service output is over the original formula's variables either way.
  // The fault key is the request's *stream* index — a pure function of the
  // submission order, so a plan hits the same request at every thread
  // count.
  AcceptCellResult r = unigen_accept_cell(
      engine, sampling_set_, prep_, *job.options, cnf_.num_vars(), rng,
      worker_ugstats_[worker], /*fault_key=*/job.first_stream + k);
  fill_slot(job, k, finish_request_from_cell(std::move(r), job.max_batch, rng));
}

BatchResult SamplerPool::inline_request(std::uint64_t stream,
                                        std::size_t max_batch) {
  BatchResult out;
  switch (prep_.mode) {
    case UniGenPrepared::Mode::kUnsat:
      out.status = SampleResult::Status::kUnsat;
      return out;
    case UniGenPrepared::Mode::kTrivial: {
      Rng rng = pool_.fork_stream(stream);
      if (max_batch == 0)
        out.models.push_back(unigen_trivial_single(prep_, rng));
      else
        out.models = unigen_trivial_batch(prep_, max_batch, rng);
      out.status = SampleResult::Status::kOk;
      return out;
    }
    default:
      out.status = SampleResult::Status::kTimeout;
      return out;
  }
}

void SamplerPool::fill_slot(Job& job, std::size_t k, BatchResult r) {
  job.served[k] = 1;
  if (job.batches != nullptr) {
    (*job.batches)[k] = std::move(r);
    return;
  }
  SampleResult& s = (*job.singles)[k];
  s.status = r.status;
  if (r.ok() && !r.models.empty()) s.witness = std::move(r.models.front());
}

void SamplerPool::account(SampleResult::Status status) {
  ++requests_;
  switch (status) {
    case SampleResult::Status::kOk:
      ++ok_;
      break;
    case SampleResult::Status::kFail:
      ++failed_;
      break;
    case SampleResult::Status::kTimeout:
      ++timed_out_;
      break;
    case SampleResult::Status::kCancelled:
      ++cancelled_;
      break;
    case SampleResult::Status::kUnsat:
      break;
  }
}

void SamplerPool::serve_via_fleet(Job& job, const Budget& budget) {
  // Request k of this call is task (first_stream + k): the id doubles as
  // the worker-side fault-plan key and matches the in-process fault_key,
  // so one injection plan addresses the same request on both backends.
  // Raw RNG state per task keeps every draw identical to pool_'s keyed
  // fork; a crashed request's retry re-runs the same pure function.
  const std::size_t count = job.served.size();
  std::vector<ProcessFleet::TaskSpec> specs(count);
  const obs::TraceContext tctx = obs::current_context();
  for (std::size_t k = 0; k < count; ++k) {
    specs[k].id = job.first_stream + k;
    specs[k].rng_state = pool_.fork_stream(job.first_stream + k).state();
    specs[k].max_batch = job.max_batch;
    // Trace propagation (observability only): worker spans land under this
    // call's pool.request span.
    specs[k].trace_id = tctx.trace_id;
    specs[k].parent_span = tctx.span_id;
  }
  std::vector<ProcessFleet::TaskOutcome> outcomes = fleet_->run(specs, budget);
  for (std::size_t k = 0; k < count; ++k) {
    if (!outcomes[k].served) continue;  // poisoned/cut → finish_job stamps
    std::optional<ipc::SampleSlot> slot =
        ipc::unpack_sample(outcomes[k].result);
    if (!slot) continue;  // corrupt status byte: treat as unserved
    // Fleet slot w's counters land on pool worker w (mod the pool width),
    // so stats() totals match the in-process backend's.
    const std::size_t w = outcomes[k].worker % worker_ugstats_.size();
    ++fleet_served_[w];
    UniGenStats& ws = worker_ugstats_[w];
    ws.sample_bsat_calls += slot->sample_bsat_calls;
    ws.bsat_timeout_retries += slot->timeout_retries;
    fill_slot(job, k, BatchResult{slot->status, std::move(slot->models)});
  }
}

RequestStatus SamplerPool::finish_job(const Budget& budget, Job& job) {
  // After quiescence, on the dispatcher thread.  A token that fired at any
  // point during the call makes the whole call kCancelled (the token
  // cannot un-trip mid-call), so unserved slots are cancellations; with no
  // token the only thing that leaves a slot unserved is the wall deadline.
  const bool cancelled = budget.cancelled();
  const auto status = cancelled ? SampleResult::Status::kCancelled
                                : SampleResult::Status::kTimeout;
  std::size_t unserved = 0;
  for (std::size_t k = 0; k < job.served.size(); ++k) {
    if (job.served[k]) continue;
    ++unserved;
    if (job.singles != nullptr)
      (*job.singles)[k].status = status;
    else
      (*job.batches)[k].status = status;
  }
  if (cancelled) return RequestStatus::kCancelled;
  if (unserved == job.served.size() && unserved > 0)
    return RequestStatus::kTimedOut;
  if (unserved > 0) return RequestStatus::kPartial;
  return RequestStatus::kComplete;
}

RequestStatus SamplerPool::run_job(Job& job, std::size_t count,
                                   const Budget& budget) {
  if (count == 0) return RequestStatus::kComplete;
  if (job.singles != nullptr)
    job.singles->resize(count);
  else
    job.batches->resize(count);
  job.served.assign(count, 0);
  job.first_stream = next_stream_;
  next_stream_ += count;  // streams are consumed whatever the outcome
  // A degenerate budget admits nothing: finish_job stamps every slot
  // honestly before prepare() or any BSAT call.
  if (budget.admission_status() == RequestStatus::kComplete) {
    // Observability only: one span (and one trace id, keyed by the call's
    // first request stream) per service call.  Cold calls nest prepare
    // under it; every request span of this call becomes its child.
    obs::Span call_span(
        "pool.request",
        obs::trace_id_for_request(options_.seed, job.first_stream));
    call_span.set_value(count);
    prepare();
    const Stopwatch watch;
    UniGenOptions opts = options_.unigen;
    opts.budget = budget;
    job.options = &opts;
    if (prep_.mode != UniGenPrepared::Mode::kHashed) {
      for (std::size_t k = 0; k < count; ++k) {
        if (budget.cancelled() || budget.wall_expired()) break;
        fill_slot(job, k, inline_request(job.first_stream + k, job.max_batch));
      }
    } else if (fleet_ != nullptr) {
      serve_via_fleet(job, budget);
    } else {
      pool_.run(count, job.first_stream,
                [this, &job](IncrementalBsat& engine, std::size_t worker,
                             std::size_t k, Rng& rng) {
                  serve(engine, worker, job, k, rng);
                },
                budget.cancel != nullptr ? budget.cancel->flag() : nullptr);
    }
    service_seconds_ += watch.seconds();
  }
  const RequestStatus status = finish_job(budget, job);
  if (job.singles != nullptr)
    for (const SampleResult& r : *job.singles) account(r.status);
  else
    for (const BatchResult& r : *job.batches) account(r.status);
  return status;
}

std::vector<SampleResult> SamplerPool::sample_many(std::size_t count) {
  return sample_many_within(count, options_.unigen.budget).samples;
}

std::vector<BatchResult> SamplerPool::sample_batches(std::size_t requests,
                                                     std::size_t max_batch) {
  return sample_batches_within(requests, max_batch, options_.unigen.budget)
      .batches;
}

SampleManyResult SamplerPool::sample_many_within(std::size_t count,
                                                 const Budget& budget) {
  SampleManyResult out;
  Job job;
  job.singles = &out.samples;
  out.status = run_job(job, count, budget);
  return out;
}

SampleBatchesResult SamplerPool::sample_batches_within(std::size_t requests,
                                                       std::size_t max_batch,
                                                       const Budget& budget) {
  SampleBatchesResult out;
  if (max_batch == 0) return out;
  Job job;
  job.max_batch = max_batch;
  job.batches = &out.batches;
  out.status = run_job(job, requests, budget);
  return out;
}

SamplerPoolStats SamplerPool::stats() const {
  SamplerPoolStats out;
  out.prepare = prepare_stats_;
  out.requests = requests_;
  out.samples_ok = ok_;
  out.samples_failed = failed_;
  out.samples_timed_out = timed_out_;
  out.samples_cancelled = cancelled_;
  out.service_seconds = service_seconds_;
  out.workers.reserve(pool_.num_threads());
  for (std::size_t w = 0; w < pool_.num_threads(); ++w) {
    SamplerPoolWorkerStats ws;
    ws.requests_served =
        pool_.tasks_served(w) -
        (w < prepare_tasks_.size() ? prepare_tasks_[w] : 0) +
        fleet_served_[w];
    const SolverStats es = pool_.engine_stats(w);
    ws.solver_rebuilds = es.solver_rebuilds;
    ws.reused_solves = es.reused_solves;
    ws.sample_bsat_calls = worker_ugstats_[w].sample_bsat_calls;
    ws.bsat_timeout_retries = worker_ugstats_[w].bsat_timeout_retries;
    ws.total_xor_rows = worker_ugstats_[w].total_xor_rows;
    ws.total_xor_row_length = worker_ugstats_[w].total_xor_row_length;
    out.workers.push_back(ws);
  }
  return out;
}

}  // namespace unigen
