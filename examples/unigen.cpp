// unigen — the command-line front end: one binary, three subcommands
// (synopsis and defaults in kUsage below).
//
// `sample` draws exactly K almost-uniform witnesses of a DIMACS CNF (with
// optional `c ind` sampling-set lines and `x` XOR clauses) on a
// SamplerPool and prints them as v-lines; requests that return ⊥ are
// re-requested on fresh streams until K witnesses are in hand or 10K+100
// failures pile up.  For a fixed seed the v-lines are identical at every
// --threads value and with or without a fleet.  `count` approximates the
// (projected) model count with ApproxMC at seed 0xDAC14; the estimate is
// identical at every width.  `serve` answers K witnesses per formula per
// round through the session registry, printing per request whether it was
// served COLD (simplify + prepare paid) or warm, and the registry's cache
// economics at the end (try --max-sessions 1 with several files to watch
// LRU thrash).  With no file, each subcommand runs a built-in demo.
//
// --threads 0 means one worker per hardware thread.  --fleet N serves the
// hashed path (or the count iterations) from N crash-isolated
// unigen_workerd processes; --fleet-tcp moves their frames onto TCP
// loopback, and --fleet-endpoints dials pre-started `unigen_workerd
// --listen` servers (any host) instead of spawning.  --trace-out and
// --stats-json switch the observability layer on and export the span trees
// as JSONL and a JSON document: {"pool":…,"metrics":…} for sample,
// {"metrics":…} for count, {"registry":…,"metrics":…} for serve.
//
// Exit codes: 0 success, 1 runtime error (unreadable or malformed input,
// a setting the library rejects, failed export, no estimate), 2 usage
// error, 20 unsatisfiable (sample).

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "cnf/dimacs.hpp"
#include "counting/approxmc.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_json.hpp"
#include "obs/trace.hpp"
#include "service/process_fleet.hpp"
#include "service/sampler_pool.hpp"
#include "service/sampling_server.hpp"
#include "util/timer.hpp"
#include "workloads/circuits.hpp"

namespace {

using namespace unigen;

constexpr const char* kUsage =
    "usage: unigen sample [--samples K=10] [--threads N=0] [--epsilon E=6]\n"
    "                     [--seed S] [FLEET] [EXPORT] [file.cnf]\n"
    "       unigen count  [--threads N=0] [--epsilon E=0.8] [--delta D=0.2]\n"
    "                     [FLEET] [EXPORT] [file.cnf]\n"
    "       unigen serve  [--samples K=5] [--rounds R=2] [--threads N=0]\n"
    "                     [--max-sessions M=8] [--seed S] [FLEET] [EXPORT]\n"
    "                     [file.cnf ...]\n"
    "  FLEET:  [--fleet N] [--fleet-tcp] [--fleet-endpoints host:port[,...]]\n"
    "  EXPORT: [--trace-out t.jsonl] [--stats-json s.json]\n";

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "error: %s\n%s", what.c_str(), kUsage);
  std::exit(2);
}

/// Strict numeric read: the whole text must be one number.  Unsigned
/// targets reject a sign; doubles must be finite and positive; overflow is
/// an error rather than a wrap or a clamp.
template <class T>
bool parse_number(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value) || value <= 0) return false;
  }
  out = value;
  return true;
}

struct Flag {
  const char* name;
  /// Null for a switch; otherwise applies the value, false when malformed.
  std::function<bool(const char*)> set;
  bool* on = nullptr;  ///< the switch's target
};

template <class T>
Flag number(const char* name, T& target) {
  return {name, [&target](const char* v) { return parse_number(v, target); }};
}

Flag text(const char* name, std::string& target) {
  return {name, [&target](const char* v) {
            target = v;
            return true;
          }};
}

/// The flags every subcommand takes: fleet wiring and the two exports.
struct Common {
  std::size_t fleet_workers = 0;
  bool fleet_tcp = false;
  std::vector<std::string> fleet_endpoints;
  std::string trace_out;
  std::string stats_json;
  std::vector<std::string> files;

  bool fleet_requested() const {
    return fleet_workers > 0 || !fleet_endpoints.empty();
  }

  FleetOptions fleet() const {
    FleetOptions f;
    if (!fleet_requested()) return f;
    f.backend = ExecBackend::kProcessFleet;
    f.num_workers = fleet_workers;
    if (fleet_tcp || !fleet_endpoints.empty())
      f.transport = FleetTransport::kTcp;
    f.endpoints = fleet_endpoints;
    return f;
  }
};

/// Parses the arguments after the subcommand (argv[1]) against its own
/// flags plus the common ones.  Anything else starting with "--" is a usage
/// error; the rest are files (at most one unless `many_files`).
void parse_args(int argc, char** argv, std::vector<Flag> flags, Common& c,
                bool many_files) {
  flags.push_back(number("--fleet", c.fleet_workers));
  flags.push_back({"--fleet-tcp", nullptr, &c.fleet_tcp});
  flags.push_back({"--fleet-endpoints", [&c](const char* list) {
                     for (const char* b = list; *b != '\0';) {
                       const char* e = std::strchr(b, ',');
                       if (e == nullptr) e = b + std::strlen(b);
                       if (e > b) c.fleet_endpoints.emplace_back(b, e);
                       b = *e == ',' ? e + 1 : e;
                     }
                     return true;
                   }});
  flags.push_back(text("--trace-out", c.trace_out));
  flags.push_back(text("--stats-json", c.stats_json));

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      c.files.push_back(arg);
      continue;
    }
    const Flag* flag = nullptr;
    for (const Flag& f : flags)
      if (arg == f.name) flag = &f;
    if (flag == nullptr)
      usage_error(arg + " is not an option of unigen " + argv[1]);
    if (flag->on != nullptr) {
      *flag->on = true;
      continue;
    }
    if (i + 1 >= argc) usage_error(arg + " needs a value");
    if (!flag->set(argv[++i]))
      usage_error("bad value for " + arg + ": '" + argv[i] + "'");
  }
  if (!many_files && c.files.size() > 1)
    usage_error(std::string("unigen ") + argv[1] + " takes at most one file");
  if (!c.trace_out.empty() || !c.stats_json.empty()) obs::set_enabled(true);
}

struct Formula {
  std::string name;
  Cnf cnf;
};

/// Parses every file strictly, or returns the subcommand's built-in demo
/// (announced with `demo_note`) when no file was given.
std::vector<Formula> load_formulas(const Common& c, const char* demo_note,
                                   std::vector<Formula> (*demo)()) {
  if (c.files.empty()) {
    std::printf("c no input file; %s\n", demo_note);
    return demo();
  }
  std::vector<Formula> out;
  for (const std::string& path : c.files) {
    try {
      out.push_back({path, parse_dimacs_file(path)});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
      std::exit(1);
    }
  }
  return out;
}

void print_witness(const Model& w) {
  std::printf("v");
  for (std::size_t v = 0; v < w.size(); ++v)
    std::printf(" %s%zu", w[v] == lbool::True ? "" : "-", v + 1);
  std::printf(" 0\n");
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("c wrote %s\n", path.c_str());
}

/// Writes the requested exports; `members` are the subcommand's own
/// `"name":{…}` entries of the stats document, ahead of "metrics".
void export_run(const Common& c, const std::string& members) {
  if (!c.trace_out.empty()) write_file(c.trace_out, obs::trace_jsonl());
  if (!c.stats_json.empty())
    write_file(c.stats_json, '{' + members + (members.empty() ? "" : ",") +
                                 "\"metrics\":" + obs::metrics_json() +
                                 "}\n");
}

// --- sample -------------------------------------------------------------

std::vector<Formula> sample_demo() {
  // 336 witnesses: above hiThresh(ε=6) = 89, so the demo runs the hashed
  // path and actually fans out across the workers.
  return {{"demo", parse_dimacs_string("c ind 1 2 3 4 5 6 7 8 9 10 0\n"
                                       "p cnf 10 3\n"
                                       "1 2 3 0\n"
                                       "-3 4 0\n"
                                       "x5 6 7 0\n")}};
}

int run_sample(int argc, char** argv) {
  std::size_t samples = 10;
  SamplerPoolOptions options;
  Common c;
  parse_args(argc, argv,
             {number("--samples", samples),
              number("--threads", options.num_threads),
              number("--epsilon", options.unigen.epsilon),
              number("--seed", options.seed)},
             c, false);
  Cnf cnf = std::move(
      load_formulas(c, "sampling a built-in demo formula", sample_demo)[0].cnf);

  std::printf("c %s\n", cnf.summary().c_str());
  if (!cnf.sampling_set().has_value())
    std::printf("c note: no `c ind` lines; hashing over the full support "
                "(correct, but slower on large formulas)\n");

  options.unigen.fleet = c.fleet();
  SamplerPool pool(std::move(cnf), options);
  if (!pool.prepare()) {
    std::fprintf(stderr, "error: prepare exceeded its budget\n");
    return 1;
  }
  std::printf("c serving with %zu worker thread(s), seed %llu\n",
              pool.num_threads(),
              static_cast<unsigned long long>(options.seed));
  if (pool.fleet() != nullptr)
    std::printf("c process fleet up: %zu worker(s), transport %s\n",
                pool.fleet()->num_workers(),
                !c.fleet_endpoints.empty()
                    ? "tcp-remote"
                    : (c.fleet_tcp ? "tcp-loopback" : "socketpair"));
  else if (c.fleet_requested())
    std::printf("c process fleet unavailable; serving in-process\n");
  if (pool.prepared().mode == UniGenPrepared::Mode::kUnsat) {
    std::printf("s UNSATISFIABLE\n");
    return 20;
  }

  // The stream ledger makes a follow-up call continue exactly where the
  // previous one stopped, so topping up the ⊥ slots keeps the output a
  // function of the seed alone.
  std::size_t produced = 0, failures = 0;
  while (produced < samples) {
    for (const SampleResult& r : pool.sample_many(samples - produced)) {
      if (!r.ok()) {
        ++failures;
        continue;
      }
      print_witness(r.witness);
      ++produced;
    }
    if (produced < samples && failures > 10 * samples + 100) {
      std::fprintf(stderr, "error: persistent sampling failure\n");
      return 1;
    }
  }

  const SamplerPoolStats st = pool.stats();
  std::printf("c %llu/%llu ok (%llu bottom, %llu timeout), q=%d, "
              "service %.3f s\n",
              static_cast<unsigned long long>(st.samples_ok),
              static_cast<unsigned long long>(st.requests),
              static_cast<unsigned long long>(st.samples_failed),
              static_cast<unsigned long long>(st.samples_timed_out),
              st.prepare.q, st.service_seconds);
  for (std::size_t w = 0; w < st.workers.size(); ++w)
    std::printf(
        "c worker %zu: %llu served, %llu BSAT calls, %llu solver build(s)\n",
        w, static_cast<unsigned long long>(st.workers[w].requests_served),
        static_cast<unsigned long long>(st.workers[w].sample_bsat_calls),
        static_cast<unsigned long long>(st.workers[w].solver_rebuilds));
  export_run(c, "\"pool\":" + obs::to_json(st));
  return 0;
}

// --- count --------------------------------------------------------------

std::vector<Formula> count_demo() {
  workloads::CircuitParityOptions co;
  co.state_bits = 24;
  co.input_bits = 12;
  co.rounds = 2;
  co.parity_constraints = 3;
  co.seed = 7;
  return {{"demo", workloads::make_circuit_parity_bench(co, "demo")}};
}

int run_count(int argc, char** argv) {
  ApproxMcOptions opts;
  opts.num_threads = 0;
  Common c;
  parse_args(argc, argv,
             {number("--threads", opts.num_threads),
              number("--epsilon", opts.epsilon),
              number("--delta", opts.delta)},
             c, false);
  const Cnf cnf = std::move(
      load_formulas(c, "counting the built-in demo circuit", count_demo)[0]
          .cnf);
  opts.fleet = c.fleet();

  std::printf("counting %s, eps=%.2f delta=%.2f\n", cnf.summary().c_str(),
              opts.epsilon, opts.delta);
  Rng rng(0xDAC14);
  const Stopwatch watch;
  const ApproxMcResult r = approx_count(cnf, opts, rng);
  const double seconds = watch.seconds();

  if (!r.valid) {
    std::printf("no estimate (%s)\n", r.timed_out ? "timed out" : "failed");
    return 1;
  }
  if (r.exact)
    std::printf("exact count: %llu  (small solution space)\n",
                static_cast<unsigned long long>(r.cell_count));
  else
    std::printf("estimate: %llu * 2^%u  (log2 = %.2f)\n",
                static_cast<unsigned long long>(r.cell_count), r.hash_count,
                r.log2_value());
  std::printf("  %.2fs wall, %llu BSAT probes, %d/%d iterations succeeded\n",
              seconds, static_cast<unsigned long long>(r.bsat_calls),
              r.iterations_succeeded, r.iterations_requested);
  std::printf("  fan-out: %zu worker(s), leapfrog warm/cold = %llu/%llu\n",
              r.threads_used,
              static_cast<unsigned long long>(r.leapfrog_warm_starts),
              static_cast<unsigned long long>(r.leapfrog_cold_starts));
  for (std::size_t w = 0; w < r.workers.size(); ++w)
    std::printf("  worker %zu: %llu solver build(s), %llu reused solves\n",
                w,
                static_cast<unsigned long long>(r.workers[w].solver_rebuilds),
                static_cast<unsigned long long>(r.workers[w].reused_solves));
  export_run(c, "");
  return 0;
}

// --- serve --------------------------------------------------------------

std::vector<Formula> serve_demo() {
  return {{"demo_a", parse_dimacs_string("p cnf 10 3\n"
                                         "1 2 3 0\n"
                                         "-3 4 0\n"
                                         "5 6 7 0\n")},
          {"demo_b", parse_dimacs_string("p cnf 8 3\n"
                                         "1 2 0\n"
                                         "3 -4 0\n"
                                         "5 6 -7 0\n")},
          {"demo_c", parse_dimacs_string("p cnf 3 1\n"
                                         "1 2 3 0\n")}};
}

int run_serve(int argc, char** argv) {
  std::size_t samples = 5;
  std::size_t rounds = 2;
  SamplingServerOptions options;
  SamplerPoolOptions& pool = options.registry.pool;
  Common c;
  parse_args(argc, argv,
             {number("--samples", samples), number("--rounds", rounds),
              number("--threads", pool.num_threads),
              number("--max-sessions", options.registry.max_sessions),
              number("--seed", pool.seed)},
             c, true);
  const std::vector<Formula> formulas =
      load_formulas(c, "serving a built-in demo trio", serve_demo);
  pool.unigen.fleet = c.fleet();
  SamplingServer server(options);

  for (std::size_t round = 0; round < rounds; ++round) {
    for (const auto& [name, cnf] : formulas) {
      const ServerSampleResponse r = server.sample(cnf, samples);
      std::size_t ok = 0;
      for (const auto& s : r.samples)
        if (s.ok()) ++ok;
      std::printf(
          "c round %zu  %-20s %s  %s  %zu/%zu witnesses  session %s\n",
          round, name.c_str(), r.warm ? "warm" : "COLD", to_string(r.status),
          ok, r.samples.size(), r.key.hex().c_str());
      if (round == 0)
        for (const auto& s : r.samples)
          if (s.ok()) print_witness(s.witness);
    }
  }

  const SessionRegistryStats st = server.stats();
  std::printf(
      "c registry: %llu requests, %llu hits (%.0f%%), %llu misses, %llu "
      "evictions, %llu prepare failures, %zu live sessions, ~%zu bytes "
      "resident\n",
      static_cast<unsigned long long>(st.requests),
      static_cast<unsigned long long>(st.hits), 100.0 * st.hit_rate(),
      static_cast<unsigned long long>(st.misses),
      static_cast<unsigned long long>(st.evictions),
      static_cast<unsigned long long>(st.prepare_failures), st.sessions,
      st.resident_bytes);
  export_run(c, "\"registry\":" + obs::to_json(st));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  try {
    if (cmd == "sample") return run_sample(argc, argv);
    if (cmd == "count") return run_count(argc, argv);
    if (cmd == "serve") return run_serve(argc, argv);
  } catch (const std::exception& e) {
    // Out-of-domain settings the library rejects, e.g. --epsilon 1.5.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage_error(cmd.empty() ? "missing subcommand"
                          : "unknown subcommand '" + cmd + "'");
}
