// perfbench: runs one benchmark workload against the SamplingServer
// from one process with one closed-loop client, checks every output, and
// prints its metrics.  See README.md in this directory for the workloads,
// the metric definitions and what each per-layer metric should move.
//
//   perfbench --workload sample_warm|count_cold|serve_fleet
//             --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// runs an untraced twin for S/2 seconds, then the same request sequence (on
// count_cold, its first requests) on a fresh server with tracing on
// (digests must match byte for byte), then a solver replay, and prints the
// per-layer metrics.  The last stdout line is one JSON object; the exit
// code is non-zero when any check failed.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cnf/cnf.hpp"
#include "cnf/fingerprint.hpp"
#include "core/kappa_pivot.hpp"
#include "counting/approxmc.hpp"
#include "counting/exact_counter.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/process_fleet.hpp"
#include "service/sampling_server.hpp"
#include "util/rng.hpp"
#include "workloads/circuits.hpp"
#include "workloads/sketch.hpp"

namespace {

using namespace unigen;

// --- build identity ----------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerCompiledIn = true;
#else
constexpr bool kSanitizerCompiledIn = false;
#endif
#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

bool release_build() {
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0 && kAssertsOff &&
         !kSanitizerCompiledIn && PERFBENCH_SANITIZED == 0;
}

// --- run verdict -------------------------------------------------------

struct Verdict {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
    correct = false;
  }
};

Verdict g_verdict;

// --- small statistics --------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Quantile q of a run's request latencies, taken in each of up to three
/// consecutive blocks of at least 100 requests (so q = 0.9 keeps ten
/// samples beyond it per block) and reported as the median over blocks: a
/// burst of outside load within one block does not move it.
double blocked_quantile(const std::vector<double>& v, double q) {
  const std::size_t blocks = std::clamp<std::size_t>(v.size() / 100, 1, 3);
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b)
    per_block.emplace_back(quantile(
        std::vector<double>(v.begin() + b * v.size() / blocks,
                            v.begin() + (b + 1) * v.size() / blocks),
        q));
  std::sort(per_block.begin(), per_block.end());
  return blocks == 2 ? (per_block[0] + per_block[1]) / 2.0
                     : per_block[blocks / 2];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ms_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

/// Quantile of a log2-bucketed obs histogram, at the bucket's midpoint.
double histogram_quantile_ns(const obs::MetricsSnapshot::HistogramRow& h,
                             double q) {
  if (h.count == 0) return 0.0;
  const double target = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
    seen += static_cast<double>(h.buckets[static_cast<std::size_t>(i)]);
    if (seen >= target) return 1.5 * std::ldexp(1.0, i);
  }
  return static_cast<double>(h.max_ns);
}

const obs::MetricsSnapshot::HistogramRow* find_histogram(
    const obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& h : s.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

std::uint64_t find_counter(const obs::MetricsSnapshot& s,
                           const std::string& name) {
  for (const auto& c : s.counters)
    if (c.name == name) return c.value;
  return 0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

// --- output digest (FNV-1a) --------------------------------------------

class Digest {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void add_u64(std::uint64_t v) { add(&v, sizeof v); }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  void add_model(const Model& m) {
    add_u64(m.size());
    add(m.data(), m.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- workload inputs ---------------------------------------------------

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return obs::mix64(obs::mix64(a) ^ (b + 0x9E3779B97F4A7C15ull));
}

struct Formula {
  Cnf cnf;
  /// log2 of the exact witness count when the generator knows it, else < 0.
  double known_log2 = -1.0;
};

/// A sketch-family formula; its witness count is threshold * 2^(s - 6) for
/// s selector bits.  The seed draws the hidden spec; the threshold, which
/// sets the count and with it most of a request's cost, is the caller's.
Formula sketch_formula(std::uint64_t seed, std::size_t selector_bits,
                       std::uint64_t threshold) {
  workloads::SketchOptions o;
  o.spec_input_bits = 6;
  o.selector_bits = selector_bits;
  o.mode_bits = 14;
  o.threshold = threshold;
  o.seed = seed;
  workloads::SketchBench b = workloads::make_sketch_bench(o, "sketch");
  return {std::move(b.cnf), b.witness_count.log2()};
}

Formula circuit_formula(std::uint64_t seed) {
  workloads::CircuitParityOptions o;
  o.state_bits = 12;
  o.input_bits = 8;
  o.rounds = 1;
  o.parity_constraints = 4;
  o.seed = seed;
  return {workloads::make_circuit_parity_bench(o, "circuit"), -1.0};
}

/// UniGen's first hash size is q = ceil(log2 C + log2 1.8 - log2 pivot)
/// for the ApproxMC estimate C, and a request's cost depends on q.  Counts
/// whose q sits mid-way between two integers keep q the same whatever the
/// estimate's small error, so the cost of a formula does not depend on the
/// seed's luck in the one-time count.
double q_fraction(double log2_count) {
  static const double pivot = static_cast<double>(
      compute_kappa_pivot(UniGenOptions{}.epsilon).pivot);
  const double x = log2_count + std::log2(1.8) - std::log2(pivot);
  return x - std::floor(x);
}

/// Random 3-CNF over `n` variables with a planted model (so it is
/// satisfiable) at clause density 2.7; the sampling set is every variable.
/// Candidates are drawn until the exact count has q_fraction in
/// [0.35, 0.65].
Formula random3_formula(std::uint64_t seed, Var n) {
  Rng rng(seed);
  for (;;) {
    Model planted(static_cast<std::size_t>(n));
    for (auto& v : planted) v = to_lbool(rng.flip());
    Cnf cnf(n);
    const auto clauses = static_cast<std::size_t>(2.7 * n);
    while (cnf.clauses().size() < clauses) {
      std::vector<Lit> c;
      while (c.size() < 3) {
        const auto v =
            static_cast<Var>(rng.below(static_cast<std::uint64_t>(n)));
        if (std::none_of(c.begin(), c.end(),
                         [v](Lit l) { return l.var() == v; }))
          c.push_back(Lit(v, rng.flip()));
      }
      if (std::any_of(c.begin(), c.end(), [&](Lit l) {
            return eval(planted, l) == lbool::True;
          }))
        cnf.add_clause(std::move(c));
    }
    ExactCounter counter;
    const std::optional<BigUint> count = counter.count(cnf);
    if (!count) continue;
    const double frac = q_fraction(count->log2());
    if (frac >= 0.35 && frac <= 0.65) return {std::move(cnf), count->log2()};
  }
}

// --- workloads ---------------------------------------------------------

enum class Kind { kSampleWarm, kCountCold, kServeFleet };

// Sketch selector widths: a sample_warm sketch request costs about 1.2x a
// circuit request, so latency_p90_ms falls in the tail of the five sketches,
// which varies less from seed to seed than that of the two circuits;
// count_cold's counts take about 0.1 s.
constexpr std::size_t kWarmSelectorBits = 17;
constexpr std::size_t kColdSelectorBits = 13;
/// sample_warm's sketch counts, threshold * 2^11, all with q_fraction within
/// 0.1 of 0.5 (see q_fraction).
constexpr std::uint64_t kWarmThresholds[5] = {3800, 4200, 7600, 8000, 8400};
/// serve_fleet's two formulas are the same for every workload seed: two
/// random 3-CNFs differ in cost per request by a factor of up to two, which
/// would swamp the benchmark's bounds.  The seed still drives every hash
/// and witness through the server seed.
constexpr std::uint64_t kFleetFormulaSeed = 0xF1EE7;
/// count_cold cycles its count sizes with the round (4 requests).
constexpr std::uint64_t kColdThresholds[4] = {3000, 5500, 8000, 10500};

/// One request's outcome as the client sees it.
struct Response {
  RequestStatus status = RequestStatus::kTimedOut;
  bool warm = false;
  std::vector<SampleResult> singles;
  std::vector<BatchResult> batches;
  bool is_count = false;
  bool count_valid = false;  ///< a count was produced (not unsat/timed out)
  double log2_count = 0.0;
};

/// Per-layer observations of the traced phase.
struct Ledger {
  std::vector<double> acquire_ms, pool_call_ms, fingerprint_ms;
  std::vector<double> sample_request_ms, bsat_call_ms, count_iteration_ms;
  std::vector<UniGenStats> prepares;  ///< one per cold session
  double probe_self_ns = 0.0;
  std::size_t probes = 0;
  std::size_t bsat_calls = 0;
  double task_busy_ns = 0.0;
  double wall_ns = 0.0;
  double dispatch_ns = 0.0;
  std::size_t dispatches = 0;
  std::map<std::string, std::uint64_t> path_ns;
  std::uint64_t dropped = 0;
  std::size_t extra_roots = 0;
  std::size_t requests = 0;

  /// Drains the rings after one request and folds its span tree in.
  void fold_request(std::uint64_t request_wall_ns);
};

std::string layer_of(const std::string& span) {
  if (span == "bench.request") return "bench";
  if (span == "sample.request") return "core";
  if (span == "count.request" || span == "count.iteration") return "counting";
  if (span == "hash.probe") return "hashing";
  if (span == "bsat.call") return "sat";
  return "service";  // bench.acquire/pool_call, pool.*, fleet.*, worker.task
}

void Ledger::fold_request(std::uint64_t request_wall_ns) {
  dropped += obs::dropped_events();
  const std::vector<obs::TraceEvent> events = obs::snapshot_events();
  obs::clear_all();
  ++requests;
  wall_ns += static_cast<double>(request_wall_ns);

  // A fleet worker's task span is recorded as a sibling of the
  // supervisor's attempt span; the attempt encloses it, so re-parent it to
  // keep the worker's time on the blocking path.
  std::map<std::pair<std::uint64_t, std::uint32_t>, const obs::TraceEvent*>
      attempts;
  for (const obs::TraceEvent& e : events)
    if (std::strcmp(e.name, "fleet.attempt") == 0)
      attempts[{e.value, e.attempt}] = &e;
  std::vector<perfbench::SpanNode> nodes;
  nodes.reserve(events.size());
  for (const obs::TraceEvent& e : events) {
    perfbench::SpanNode n{e.span_id, e.parent_id, e.start_ns, e.end_ns,
                          e.name};
    if (n.name == "worker.task") {
      const auto a = attempts.find({e.value, e.attempt});
      if (a != attempts.end()) {
        n.parent = a->second->span_id;
        dispatch_ns += static_cast<double>(
            (a->second->end_ns - a->second->start_ns) -
            std::min(a->second->end_ns - a->second->start_ns,
                     e.end_ns - e.start_ns));
        ++dispatches;
      }
    }
    nodes.push_back(std::move(n));
  }
  const perfbench::SpanTree tree(std::move(nodes));
  for (std::size_t i = 0; i < tree.nodes().size(); ++i) {
    const std::string& name = tree.nodes()[i].name;
    const double dur = static_cast<double>(tree.duration_ns(i));
    if (name == "sample.request") {
      sample_request_ms.push_back(dur / 1e6);
      task_busy_ns += dur;
    } else if (name == "count.iteration") {
      count_iteration_ms.push_back(dur / 1e6);
      task_busy_ns += dur;
    } else if (name == "bsat.call") {
      bsat_call_ms.push_back(dur / 1e6);
      ++bsat_calls;
    } else if (name == "hash.probe") {
      probe_self_ns += static_cast<double>(tree.self_ns(i));
      ++probes;
    }
  }
  std::size_t root = tree.nodes().size();
  for (std::size_t r : tree.roots()) {
    if (tree.nodes()[r].name == "bench.request")
      root = r;
    else
      ++extra_roots;
  }
  if (root == tree.nodes().size()) {
    g_verdict.fail("traced request without a bench.request root span");
    return;
  }
  std::map<std::string, std::uint64_t> path;
  tree.blocking_path(root, path);
  for (const auto& [name, ns] : path) path_ns[layer_of(name)] += ns;
}

struct WorkloadShape {
  Kind kind;
  std::size_t threads;
  std::size_t max_sessions;
  bool fleet;
};

WorkloadShape shape_of(Kind kind, std::size_t nproc) {
  switch (kind) {
    case Kind::kSampleWarm:
      return {kind, nproc, 8, false};
    case Kind::kCountCold:
      return {kind, nproc, 2, false};
    case Kind::kServeFleet:
      return {kind, 2, 2, true};
  }
  return {kind, 1, 1, false};
}

class Workload {
 public:
  Workload(Kind kind, std::uint64_t seed, std::size_t nproc)
      : shape_(shape_of(kind, nproc)), seed_(seed) {
    if (kind == Kind::kSampleWarm) {
      for (std::uint64_t k = 0; k < 5; ++k)
        formulas_.push_back(
            sketch_formula(mix(seed, k), kWarmSelectorBits,
                           kWarmThresholds[k]));
      for (std::uint64_t k = 5; k < 7; ++k)
        formulas_.push_back(circuit_formula(mix(seed, k)));
    } else if (kind == Kind::kServeFleet) {
      for (std::uint64_t k = 0; k < 2; ++k)
        formulas_.push_back(random3_formula(mix(kFleetFormulaSeed, k),
                                            static_cast<Var>(24 + 4 * k)));
    }
  }

  Kind kind() const { return shape_.kind; }
  /// Requests in one cycle of the workload's request pattern.
  std::size_t round_size() const {
    return shape_.kind == Kind::kSampleWarm ? formulas_.size() : 4;
  }
  std::size_t threads() const { return shape_.threads; }

  /// A fresh server paying the workload's cold cost: every formula
  /// prepared (sample_warm, serve_fleet) or one warm-up count (count_cold).
  void setup() {
    sessions_.clear();
    server_.reset();  // joins the old pools, reaps the old fleet
    SamplingServerOptions so;
    so.registry.pool.num_threads = shape_.threads;
    so.registry.pool.seed = mix(seed_, 0x5EED);
    so.registry.max_sessions = shape_.max_sessions;
    if (shape_.fleet)
      so.registry.pool.unigen.fleet.backend = ExecBackend::kProcessFleet;
    server_ = std::make_unique<SamplingServer>(std::move(so));
    if (shape_.kind == Kind::kCountCold) {
      const Formula f =
          sketch_formula(mix(seed_, 1000000 + setups_), kColdSelectorBits,
                         kColdThresholds[setups_ % 4]);
      const ServerCountResponse c = server_->count(f.cnf);
      check_count(from_count(c.status, c.warm, c.unsat, c.approx_log2_count),
                  f, "warm-up count");
    } else {
      for (const Formula& f : formulas_) {
        const AcquireResult a = server_->registry().acquire(f.cnf);
        if (!a.ok() || a.warm) {
          g_verdict.fail("set-up prepare failed or was not cold");
          continue;
        }
        const UniGenPrepared& prep = a.session->pool().prepared();
        if (prep.mode != UniGenPrepared::Mode::kHashed)
          g_verdict.fail("a workload formula is not in hashed mode");
        if (setups_ == 0)
          std::printf("formula %zu: vars=%d |S|=%zu log2_count=%.3f q=%d\n",
                      sessions_.size(), f.cnf.num_vars(),
                      f.cnf.sampling_set_or_all().size(),
                      prep.approx_log2_count, prep.q);
        if (shape_.fleet && (a.session->pool().fleet() == nullptr ||
                             a.session->pool().fleet()->stats().spawns == 0))
          g_verdict.fail(
              "serve_fleet fell back in-process (no unigen_workerd?)");
        sessions_.push_back(a.session);
      }
    }
    ++setups_;
    misses_after_setup_ = server_->stats().misses;
    evictions_after_setup_ = server_->stats().evictions;
  }

  /// The input of request i (count_cold generates a fresh formula).
  const Formula& input(std::size_t i) {
    if (shape_.kind == Kind::kCountCold) {
      current_ = sketch_formula(mix(seed_, i), kColdSelectorBits,
                                kColdThresholds[i % 4]);
      return current_;
    }
    return formulas_[i % formulas_.size()];
  }

  /// Request i through the server's public entry points.
  Response request(std::size_t i, const Formula& f) {
    Response r;
    switch (shape_.kind) {
      case Kind::kSampleWarm: {
        ServerSampleResponse s = server_->sample(f.cnf, 4);
        r.status = s.status;
        r.warm = s.warm;
        r.singles = std::move(s.samples);
        break;
      }
      case Kind::kCountCold: {
        const ServerCountResponse c = server_->count(f.cnf);
        r = from_count(c.status, c.warm, c.unsat, c.approx_log2_count);
        break;
      }
      case Kind::kServeFleet:
        if (batch_request(i)) {
          ServerBatchResponse b = server_->sample_batches(f.cnf, 2, 16);
          r.status = b.status;
          r.warm = b.warm;
          r.batches = std::move(b.batches);
        } else {
          ServerSampleResponse s = server_->sample(f.cnf, 8);
          r.status = s.status;
          r.warm = s.warm;
          r.singles = std::move(s.samples);
        }
        break;
    }
    return r;
  }

  /// The same request decomposed into its public layer calls (registry
  /// acquire, then the session pool), each under a span of its own.
  Response request_traced(std::size_t i, const Formula& f, Ledger& ledger) {
    Response r;
    const Budget& budget = server_->registry().options().pool.unigen.budget;
    obs::Span root("bench.request");
    AcquireResult a;
    {
      obs::Span span("bench.acquire");
      const std::uint64_t t0 = obs::now_ns();
      a = server_->registry().acquire(f.cnf, budget);
      ledger.acquire_ms.push_back(ms_between(t0, obs::now_ns()));
    }
    r.warm = a.warm;
    if (!a.ok()) return r;
    SamplerPool& pool = a.session->pool();
    if (shape_.kind == Kind::kCountCold) {
      const UniGenPrepared& prep = pool.prepared();
      const bool unsat = prep.mode == UniGenPrepared::Mode::kUnsat;
      double log2 = prep.approx_log2_count;
      if (prep.mode == UniGenPrepared::Mode::kTrivial)
        log2 = std::log2(static_cast<double>(prep.trivial_models.size()));
      r = from_count(RequestStatus::kComplete, a.warm, unsat, log2);
      if (!a.warm) ledger.prepares.push_back(pool.stats().prepare);
      return r;
    }
    obs::Span span("bench.pool_call");
    const std::uint64_t t0 = obs::now_ns();
    if (shape_.kind == Kind::kServeFleet && batch_request(i)) {
      SampleBatchesResult b = pool.sample_batches_within(2, 16, budget);
      r.status = b.status;
      r.batches = std::move(b.batches);
    } else {
      SampleManyResult s = pool.sample_many_within(
          shape_.kind == Kind::kServeFleet ? 8 : 4, budget);
      r.status = s.status;
      r.singles = std::move(s.samples);
    }
    ledger.pool_call_ms.push_back(ms_between(t0, obs::now_ns()));
    return r;
  }

  /// Path guards on one response: which registry path it must have taken.
  void check_path(const Response& r) {
    const bool want_warm = shape_.kind != Kind::kCountCold;
    if (r.warm != want_warm && !path_reported_) {
      g_verdict.fail(want_warm ? "a request missed the registry after set-up"
                               : "a count_cold request hit a live session");
      path_reported_ = true;
    }
  }

  /// Checks the count against the generator's known witness count.
  /// Returns |log2 estimate - log2 known|, or a negative value on failure.
  double check_count(const Response& r, const Formula& f, const char* what) {
    if (r.status != RequestStatus::kComplete || !r.count_valid) {
      g_verdict.fail(std::string(what) + ": no count produced");
      return -1.0;
    }
    const double err = std::fabs(r.log2_count - f.known_log2);
    if (err > std::log2(1.0 + UniGenOptions{}.counter_epsilon)) {
      g_verdict.fail(std::string(what) + ": estimate outside the (1+eps) band");
      return -1.0;
    }
    return err;
  }

  /// End-of-phase guards and stats read through public structs.
  struct PhaseStats {
    SessionRegistryStats registry;
    std::uint64_t misses_since_setup = 0;
    std::uint64_t evictions_since_setup = 0;
    std::uint64_t timeout_retries = 0;
    double load_imbalance = 0.0;
    FleetStats fleet;
    std::vector<UniGenStats> setup_prepares;
  };
  PhaseStats phase_stats() const {
    PhaseStats out;
    out.registry = server_->stats();
    out.misses_since_setup = out.registry.misses - misses_after_setup_;
    out.evictions_since_setup = out.registry.evictions - evictions_after_setup_;
    double weighted = 0.0;
    double weight = 0.0;
    for (SamplingSession* s : sessions_) {
      const SamplerPoolStats ps = s->pool().stats();
      out.setup_prepares.push_back(ps.prepare);
      out.timeout_retries += ps.prepare.bsat_timeout_retries;
      std::vector<double> load;
      for (const SamplerPoolWorkerStats& w : ps.workers) {
        out.timeout_retries += w.bsat_timeout_retries;
        load.push_back(static_cast<double>(w.requests_served));
      }
      if (const ProcessFleet* fleet = s->pool().fleet()) {
        const FleetStats& f = fleet->stats();
        out.fleet.spawns += f.spawns;
        out.fleet.crashes += f.crashes;
        out.fleet.redispatches += f.redispatches;
        out.fleet.protocol_errors += f.protocol_errors;
        out.fleet.send_stalls += f.send_stalls;
        load.clear();
        for (const auto& w : fleet->snapshot().workers)
          load.push_back(static_cast<double>(w.tasks_dispatched));
      }
      const double m = mean(load);
      if (m > 0.0) {
        const double total = m * static_cast<double>(load.size());
        weighted += total * (*std::max_element(load.begin(), load.end()) / m);
        weight += total;
      }
    }
    out.load_imbalance = ratio(weighted, weight);
    return out;
  }

  const std::vector<Formula>& formulas() const { return formulas_; }
  std::uint64_t seed() const { return seed_; }

 private:
  static bool batch_request(std::size_t i) { return (i / 2) % 2 == 1; }

  static Response from_count(RequestStatus status, bool warm, bool unsat,
                             double log2) {
    Response r;
    r.is_count = true;
    r.status = status;
    r.warm = warm;
    r.count_valid = status == RequestStatus::kComplete && !unsat;
    r.log2_count = log2;
    return r;
  }

  WorkloadShape shape_;
  std::uint64_t seed_;
  std::vector<Formula> formulas_;
  Formula current_;
  std::unique_ptr<SamplingServer> server_;
  std::vector<SamplingSession*> sessions_;
  std::uint64_t setups_ = 0;
  std::uint64_t misses_after_setup_ = 0;
  std::uint64_t evictions_after_setup_ = 0;
  bool path_reported_ = false;
};

// --- timed phases --------------------------------------------------------

struct Phase {
  std::size_t requests = 0;
  std::vector<double> latency_ms;
  double busy_s = 0.0;  ///< summed request latencies (client think time 0)
  std::size_t slots = 0;
  std::size_t ok_slots = 0;
  std::size_t results = 0;  ///< witnesses (batch members count) or counts
  std::size_t failed = 0;
  std::vector<double> count_err;
  Digest digest;
  std::vector<std::uint64_t> digest_after;  ///< digest after each request
  /// Throughput per round (one pass over the workload's request cycle), so
  /// a burst of outside load moves one round, not the reported median.
  std::size_t round_size = 1;
  std::vector<double> round_requests_per_s, round_results_per_s;
  double round_busy_s = 0.0;
  std::size_t round_requests = 0;
  std::size_t round_results = 0;

  void close_request(double latency_s, std::size_t results_before) {
    round_busy_s += latency_s;
    round_results += results - results_before;
    if (++round_requests < round_size) return;
    round_requests_per_s.push_back(static_cast<double>(round_requests) /
                                   round_busy_s);
    round_results_per_s.push_back(static_cast<double>(round_results) /
                                  round_busy_s);
    round_busy_s = 0.0;
    round_requests = round_results = 0;
  }
};

/// Checks one response and folds it into the phase.  Witnesses must
/// satisfy the input formula; counts must fall in the (1+eps) band.
void absorb(Workload& w, const Formula& f, std::size_t i, const Response& r,
            double latency_ms, Phase& phase) {
  w.check_path(r);
  const std::size_t results_before = phase.results;
  ++phase.requests;
  phase.latency_ms.push_back(latency_ms);
  phase.busy_s += latency_ms / 1e3;
  bool failed = r.status != RequestStatus::kComplete;
  phase.digest.add_u64(i);
  phase.digest.add_u64(static_cast<std::uint64_t>(r.status));
  if (r.is_count) {
    ++phase.slots;
    const double err = w.check_count(r, f, "count request");
    if (err >= 0.0) {
      ++phase.ok_slots;
      ++phase.results;
      phase.count_err.push_back(err);
    } else {
      failed = true;
    }
    phase.digest.add_double(r.log2_count);
  }
  const auto slot = [&](SampleResult::Status status,
                        const std::vector<const Model*>& models) {
    ++phase.slots;
    phase.digest.add_u64(static_cast<std::uint64_t>(status));
    if (status == SampleResult::Status::kFail) return;  // ⊥: a miss, no error
    if (status != SampleResult::Status::kOk || models.empty()) {
      failed = true;
      return;
    }
    ++phase.ok_slots;
    for (const Model* m : models) {
      phase.digest.add_model(*m);
      if (!f.cnf.satisfied_by(*m)) {
        g_verdict.fail("a returned witness does not satisfy its formula");
        failed = true;
      }
    }
    phase.results += models.size();
  };
  for (const SampleResult& s : r.singles)
    slot(s.status, s.ok() ? std::vector<const Model*>{&s.witness}
                          : std::vector<const Model*>{});
  for (const BatchResult& b : r.batches) {
    std::vector<const Model*> models;
    for (const Model& m : b.models) models.push_back(&m);
    std::vector<Model> sorted(b.models);
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      g_verdict.fail("a batch repeats a witness");
      failed = true;
    }
    slot(b.status, models);
  }
  if (failed) ++phase.failed;
  phase.digest_after.push_back(phase.digest.value());
  phase.close_request(latency_ms / 1e3, results_before);
}

/// Runs requests until `seconds` have passed (seconds > 0) or `count`
/// requests are done.  With a ledger, requests run traced and decomposed.
Phase run_phase(Workload& w, double seconds, std::size_t count,
                Ledger* ledger) {
  Phase phase;
  phase.round_size = w.round_size();
  const std::uint64_t start = obs::now_ns();
  for (std::size_t i = 0; i < count; ++i) {
    if (seconds > 0.0 && ms_between(start, obs::now_ns()) >= seconds * 1e3)
      break;
    const Formula& f = w.input(i);
    const std::uint64_t t0 = obs::now_ns();
    const Response r =
        ledger != nullptr ? w.request_traced(i, f, *ledger) : w.request(i, f);
    const std::uint64_t t1 = obs::now_ns();
    if (ledger != nullptr) {
      ledger->fold_request(t1 - t0);
      const std::uint64_t f0 = obs::now_ns();
      (void)fingerprint_cnf(f.cnf);
      ledger->fingerprint_ms.push_back(ms_between(f0, obs::now_ns()));
    }
    absorb(w, f, i, r, ms_between(t0, t1), phase);
  }
  return phase;
}

// --- solver replay (traced runs only) ------------------------------------

/// Solver-internal counters from replaying the workload's own formulas
/// through the public one-engine entry points, with the obs metrics on.
struct Replay {
  SolverStats solver;
  double solver_seconds = 0.0;  ///< wall x threads of the replayed calls
  UniGenStats accept;
  std::size_t cells_accepted = 0;
  std::uint64_t leapfrog_warm = 0;
  std::uint64_t leapfrog_cold = 0;
  obs::MetricsSnapshot metrics;
};

void add_solver(SolverStats& into, const SolverStats& after,
                const SolverStats& before) {
  into.propagations += after.propagations - before.propagations;
  into.xor_propagations += after.xor_propagations - before.xor_propagations;
  into.conflicts += after.conflicts - before.conflicts;
  into.gauss_rows += after.gauss_rows - before.gauss_rows;
  into.solver_rebuilds += after.solver_rebuilds - before.solver_rebuilds;
  into.reused_solves += after.reused_solves - before.reused_solves;
}

Replay replay(Workload& w, Ledger& ledger) {
  Replay out;
  obs::metrics().reset();
  const SolverStats zero;
  if (w.kind() == Kind::kCountCold) {
    for (std::size_t i = 0; i < 3; ++i) {
      const Formula& f = w.input(i);
      ApproxMcOptions ao;
      ao.epsilon = UniGenOptions{}.counter_epsilon;
      ao.delta = 1.0 - UniGenOptions{}.counter_confidence;
      ao.num_threads = 2;
      Rng rng(mix(w.seed(), 0xC0DE + i));
      const std::uint64_t t0 = obs::now_ns();
      const ApproxMcResult r = approx_count(f.cnf, ao, rng);
      out.solver_seconds += ms_between(t0, obs::now_ns()) / 1e3 *
                            static_cast<double>(r.threads_used);
      if (!r.valid ||
          std::fabs(r.log2_value() - f.known_log2) >
              std::log2(1.0 + ao.epsilon))
        g_verdict.fail("replayed count outside the (1+eps) band");
      for (const SolverStats& s : r.workers) add_solver(out.solver, s, zero);
      out.leapfrog_warm += r.leapfrog_warm_starts;
      out.leapfrog_cold += r.leapfrog_cold_starts;
      ledger.dropped += obs::dropped_events();
      obs::clear_all();
    }
  } else {
    UniGenOptions uo;
    uo.counter_threads = 1;
    std::uint64_t k = 0;
    for (const Formula& f : w.formulas()) {
      const std::vector<Var> s = f.cnf.sampling_set_or_all();
      Rng rng(mix(w.seed(), 0xACCE + k++));
      UniGenPrepared prep;
      UniGenStats prep_stats;
      const std::unique_ptr<IncrementalBsat> engine =
          unigen_prepare(f.cnf, s, uo, rng, prep, prep_stats);
      if (engine == nullptr || prep.mode != UniGenPrepared::Mode::kHashed) {
        g_verdict.fail("replay formula did not prepare in hashed mode");
        continue;
      }
      const SolverStats before = engine->stats();
      const std::uint64_t t0 = obs::now_ns();
      for (std::uint64_t r = 0; r < 4; ++r) {
        const AcceptCellResult cell = unigen_accept_cell(
            *engine, s, prep, uo, f.cnf.num_vars(), rng, out.accept, r);
        if (cell.ok()) {
          ++out.cells_accepted;
          for (const Model& m : cell.cell)
            if (!f.cnf.satisfied_by(m))
              g_verdict.fail("a replayed cell holds a non-witness");
        }
      }
      out.solver_seconds += ms_between(t0, obs::now_ns()) / 1e3;
      add_solver(out.solver, engine->stats(), before);
      ledger.dropped += obs::dropped_events();
      obs::clear_all();
    }
  }
  out.metrics = obs::metrics().snapshot();
  return out;
}

// --- output --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void emit(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  std::string json = "{\"correct\": ";
  json += g_verdict.correct && g_verdict.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(g_verdict.attempted);
  json += ", \"failed\": " + std::to_string(g_verdict.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_phase(const char* label, const Phase& p) {
  std::printf(
      "phase %s: requests=%zu slots=%zu ok=%zu results=%zu failed=%zu "
      "digest=%016llx\n",
      label, p.requests, p.slots, p.ok_slots, p.results, p.failed,
      static_cast<unsigned long long>(p.digest.value()));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload")
      a.workload = v;
    else if (key == "--seed")
      a.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds")
      a.seconds = std::strtod(v, nullptr);
    else if (key == "--trace")
      a.trace = std::atoi(v);
    else
      return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         (a.trace == 0 || a.trace == 1);
}

constexpr int kSetupRounds = 3;
/// About 4 s of count_cold traced; the rings of each request's new pool
/// threads hold about 2.6 MB and are never freed.
constexpr std::size_t kMaxTracedColdRequests = 40;

std::vector<Metric> end_to_end(Workload& w, const Args& args) {
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRounds; ++r) {
    const std::uint64_t t0 = obs::now_ns();
    w.setup();
    setup_s.push_back(ms_between(t0, obs::now_ns()) / 1e3);
  }
  const Phase p = run_phase(w, args.seconds, SIZE_MAX, nullptr);
  const Workload::PhaseStats ps = w.phase_stats();
  if (ps.timeout_retries != 0) g_verdict.fail("a BSAT timeout retry fired");
  print_phase("timed", p);
  g_verdict.attempted += p.requests;
  g_verdict.failed += p.failed;
  const std::size_t beyond_p90 =
      p.requests - static_cast<std::size_t>(std::ceil(0.9 * p.requests));
  std::printf("latency samples=%zu beyond_p90=%zu\n", p.requests, beyond_p90);
  std::printf("metric %-36s %.6g %s\n", "samples_per_s",
              w.kind() == Kind::kCountCold
                  ? 0.0
                  : quantile(p.round_results_per_s, 0.5),
              "1/s");
  std::printf("metric %-36s %.6g %s\n", "error_rate",
              ratio(static_cast<double>(p.failed), p.requests), "ratio");
  if (w.kind() == Kind::kCountCold)
    std::printf("metric %-36s %.6g %s\n", "count_log2_err", mean(p.count_err),
                "log2");
  return {
      {"setup_s", quantile(setup_s, 0.5), "s"},
      {"requests_per_s", quantile(p.round_requests_per_s, 0.5), "1/s"},
      {"results_per_s", quantile(p.round_results_per_s, 0.5), "1/s"},
      {"latency_p50_ms", blocked_quantile(p.latency_ms, 0.5), "ms"},
      {"latency_p90_ms", blocked_quantile(p.latency_ms, 0.9), "ms"},
      {"success_rate",
       ratio(static_cast<double>(p.ok_slots), static_cast<double>(p.slots)),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(Workload& w, const Args& args) {
  // Untraced twin, then the same request sequence traced on a fresh server.
  // Trace recorders are never freed and every count_cold request starts a
  // new pool, so count_cold traces only the twin's first requests.
  w.setup();
  const Phase twin = run_phase(w, args.seconds / 2.0, SIZE_MAX, nullptr);
  const std::size_t n = std::min(
      twin.requests,
      w.kind() == Kind::kCountCold ? kMaxTracedColdRequests : SIZE_MAX);
  w.setup();
  Ledger ledger;
  obs::clear_all();
  obs::metrics().reset();
  obs::set_enabled(true);
  const Phase traced = run_phase(w, 0.0, n, &ledger);
  const obs::MetricsSnapshot live = obs::metrics().snapshot();
  const Workload::PhaseStats ps = w.phase_stats();
  const Replay rp = replay(w, ledger);
  obs::set_enabled(false);
  print_phase("untraced-twin", twin);
  print_phase("traced", traced);
  g_verdict.attempted += twin.requests + traced.requests;
  g_verdict.failed += twin.failed + traced.failed;
  if (n == 0 || traced.requests != n ||
      twin.digest_after[n - 1] != traced.digest.value())
    g_verdict.fail("traced and untraced outputs differ");
  if (ledger.dropped != 0) g_verdict.fail("trace rings dropped spans");
  if (ps.timeout_retries + rp.accept.bsat_timeout_retries != 0)
    g_verdict.fail("a BSAT timeout retry fired");
  if (ledger.extra_roots != 0)
    std::printf("note: %zu spans without a resolvable parent\n",
                ledger.extra_roots);

  const bool counting = w.kind() == Kind::kCountCold;
  const double requests = static_cast<double>(ledger.requests);
  double path_total = 0.0;
  for (const auto& [layer, ns] : ledger.path_ns)
    if (layer != "bench") path_total += static_cast<double>(ns);
  const double accounted = ratio(path_total, ledger.wall_ns);
  if (accounted < 0.95 || accounted > 1.0 + 1e-9)
    g_verdict.fail("blocking-path self times do not account for the wall");
  const auto path_ms = [&](const char* layer) {
    const auto it = ledger.path_ns.find(layer);
    return it == ledger.path_ns.end()
               ? 0.0
               : static_cast<double>(it->second) / 1e6 / requests;
  };

  std::vector<UniGenStats> prepares = counting ? ledger.prepares
                                               : ps.setup_prepares;
  std::vector<double> prepare_ms, simplify_ms, eliminated, prepare_calls;
  for (const UniGenStats& s : prepares) {
    prepare_ms.push_back(s.prepare_seconds * 1e3);
    simplify_ms.push_back(s.simplify.seconds * 1e3);
    eliminated.push_back(static_cast<double>(s.simplify.eliminated_vars));
    prepare_calls.push_back(static_cast<double>(s.prepare_bsat_calls));
  }
  const auto* queue = find_histogram(live, "pool.queue_wait_seconds");
  const auto* solve = find_histogram(rp.metrics, "bsat.solve_seconds");
  const double cells =
      static_cast<double>(find_counter(rp.metrics, "bsat.cells"));
  double twin_busy_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) twin_busy_s += twin.latency_ms[i] / 1e3;
  const double untraced_rps = ratio(static_cast<double>(n), twin_busy_s);
  const double traced_rps = ratio(traced.requests, traced.busy_s);
  const double witnesses = counting ? 0.0 : static_cast<double>(traced.results);

  return {
      {"service.registry.acquire_ms_p50", quantile(ledger.acquire_ms, 0.5),
       "ms"},
      {"service.registry.hits", static_cast<double>(ps.registry.hits),
       "count"},
      {"service.registry.misses",
       static_cast<double>(ps.misses_since_setup), "count"},
      {"service.registry.evictions",
       static_cast<double>(ps.evictions_since_setup), "count"},
      {"service.registry.resident_mb",
       static_cast<double>(ps.registry.resident_bytes) / 1048576.0, "MB"},
      {"service.pool.call_ms_p50", quantile(ledger.pool_call_ms, 0.5), "ms"},
      {"service.pool.queue_wait_ms_p50",
       queue ? histogram_quantile_ns(*queue, 0.5) / 1e6 : 0.0, "ms"},
      {"service.pool.busy_fraction",
       ratio(ledger.task_busy_ns,
             ledger.wall_ns * static_cast<double>(w.threads())),
       "ratio"},
      {"service.pool.load_imbalance", ps.load_imbalance, "ratio"},
      {"service.fleet.dispatch_ms_mean",
       ratio(ledger.dispatch_ns, static_cast<double>(ledger.dispatches)) / 1e6,
       "ms"},
      {"service.fleet.spawns", static_cast<double>(ps.fleet.spawns), "count"},
      {"service.fleet.crashes", static_cast<double>(ps.fleet.crashes),
       "count"},
      {"service.fleet.redispatches",
       static_cast<double>(ps.fleet.redispatches), "count"},
      {"service.fleet.protocol_errors",
       static_cast<double>(ps.fleet.protocol_errors), "count"},
      {"service.fleet.send_stalls", static_cast<double>(ps.fleet.send_stalls),
       "count"},
      {"service.path_ms", path_ms("service"), "ms"},
      {"core.sample_request_ms_p50", quantile(ledger.sample_request_ms, 0.5),
       "ms"},
      {"core.bsat_calls_per_witness",
       ratio(counting ? 0.0 : static_cast<double>(ledger.bsat_calls),
             witnesses),
       "ratio"},
      {"core.bsat_retries",
       static_cast<double>(ps.timeout_retries +
                           rp.accept.bsat_timeout_retries),
       "count"},
      {"core.path_ms", path_ms("core"), "ms"},
      {"hashing.probe_self_ms",
       ratio(ledger.probe_self_ns, static_cast<double>(ledger.probes)) / 1e6,
       "ms"},
      {"hashing.avg_xor_len", rp.accept.average_xor_length(), "vars"},
      {"hashing.rows_per_witness",
       ratio(static_cast<double>(rp.accept.total_xor_rows),
             static_cast<double>(rp.cells_accepted)),
       "ratio"},
      {"hashing.path_ms", path_ms("hashing"), "ms"},
      {"sat.bsat_call_ms_p50", quantile(ledger.bsat_call_ms, 0.5), "ms"},
      {"sat.bsat_call_ms_p90", quantile(ledger.bsat_call_ms, 0.9), "ms"},
      {"sat.cells_per_request",
       ratio(static_cast<double>(ledger.bsat_calls), requests), "count"},
      {"sat.solve_calls_per_cell",
       ratio(static_cast<double>(find_counter(rp.metrics, "bsat.solves")),
             cells),
       "ratio"},
      {"sat.solve_us_p50", solve ? histogram_quantile_ns(*solve, 0.5) / 1e3
                                 : 0.0,
       "us"},
      {"sat.props_per_s",
       ratio(static_cast<double>(rp.solver.propagations), rp.solver_seconds),
       "1/s"},
      {"sat.conflicts_per_s",
       ratio(static_cast<double>(rp.solver.conflicts), rp.solver_seconds),
       "1/s"},
      {"sat.xor_props_per_s",
       ratio(static_cast<double>(rp.solver.xor_propagations),
             rp.solver_seconds),
       "1/s"},
      {"sat.gauss_rows_per_cell",
       ratio(static_cast<double>(rp.solver.gauss_rows), cells), "ratio"},
      {"sat.solver_rebuilds", static_cast<double>(rp.solver.solver_rebuilds),
       "count"},
      {"sat.reused_solve_ratio",
       ratio(static_cast<double>(rp.solver.reused_solves), cells), "ratio"},
      {"sat.path_ms", path_ms("sat"), "ms"},
      {"counting.prepare_ms_p50", quantile(prepare_ms, 0.5), "ms"},
      {"counting.iteration_ms_p50", quantile(ledger.count_iteration_ms, 0.5),
       "ms"},
      {"counting.bsat_calls_per_count", mean(prepare_calls), "count"},
      {"counting.leapfrog_warm_rate",
       ratio(static_cast<double>(rp.leapfrog_warm),
             static_cast<double>(rp.leapfrog_warm + rp.leapfrog_cold)),
       "ratio"},
      {"counting.count_log2_err", mean(traced.count_err), "log2"},
      {"counting.path_ms", path_ms("counting"), "ms"},
      {"simplify.ms_p50", quantile(simplify_ms, 0.5), "ms"},
      {"simplify.vars_eliminated", mean(eliminated), "count"},
      {"cnf.fingerprint_ms_p50", quantile(ledger.fingerprint_ms, 0.5), "ms"},
      {"obs.trace_overhead_pct",
       untraced_rps > 0.0 ? (untraced_rps - traced_rps) / untraced_rps * 100.0
                          : 0.0,
       "%"},
      {"obs.spans_dropped", static_cast<double>(ledger.dropped), "count"},
      {"obs.accounted_fraction", accounted, "ratio"},
      {"bench.path_ms", path_ms("bench"), "ms"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload sample_warm|count_cold|"
                 "serve_fleet --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  Kind kind;
  if (args.workload == "sample_warm")
    kind = Kind::kSampleWarm;
  else if (args.workload == "count_cold")
    kind = Kind::kCountCold;
  else if (args.workload == "serve_fleet")
    kind = Kind::kServeFleet;
  else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%zu "
              "git=%s build=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, nproc, PERFBENCH_GIT_DESCRIBE,
              PERFBENCH_BUILD_TYPE);
  if (!release_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a non-Release or sanitizer "
                 "build\n");
    return 2;
  }
  std::vector<Metric> metrics;
  {
    Workload w(kind, args.seed, nproc);
    metrics = args.trace == 1 ? per_layer(w, args) : end_to_end(w, args);
  }  // servers, pools and fleet workers are gone before the result prints
  emit(metrics);
  return g_verdict.correct && g_verdict.failed == 0 ? 0 : 1;
}
