#include "obs/stats_json.hpp"

#include <cstdio>
#include <type_traits>

namespace unigen::obs {

// --- per-struct field lists ---------------------------------------------

namespace {

// One field list per struct, in output order: the only place a struct's
// JSON field names appear.
template <class F>
void visit_fields(const SimplifyStats& s, F&& f) {
  f("ran", s.ran);
  f("unsat", s.unsat);
  f("rounds", s.rounds);
  f("original_clauses", s.original_clauses);
  f("original_literals", s.original_literals);
  f("result_clauses", s.result_clauses);
  f("result_literals", s.result_literals);
  f("units_fixed", s.units_fixed);
  f("tautologies_removed", s.tautologies_removed);
  f("pure_literals_fixed", s.pure_literals_fixed);
  f("subsumed_clauses", s.subsumed_clauses);
  f("strengthened_literals", s.strengthened_literals);
  f("eliminated_vars", s.eliminated_vars);
  f("seconds", s.seconds);
}

template <class F>
void visit_fields(const UniGenStats& s, F&& f) {
  f("kappa", s.kappa);
  f("pivot", s.pivot);
  f("hi_thresh", s.hi_thresh);
  f("lo_thresh", s.lo_thresh);
  f("approx_log2_count", s.approx_log2_count);
  f("q", s.q);
  f("prepare_seconds", s.prepare_seconds);
  f("prepare_bsat_calls", s.prepare_bsat_calls);
  f("trivial", s.trivial);
  f("samples_requested", s.samples_requested);
  f("samples_ok", s.samples_ok);
  f("samples_failed", s.samples_failed);
  f("samples_timed_out", s.samples_timed_out);
  f("samples_cancelled", s.samples_cancelled);
  f("sample_bsat_calls", s.sample_bsat_calls);
  f("bsat_timeout_retries", s.bsat_timeout_retries);
  f("sample_seconds", s.sample_seconds);
  f("solver_rebuilds", s.solver_rebuilds);
  f("reused_solves", s.reused_solves);
  f("retracted_blocks", s.retracted_blocks);
  f("solver_propagations", s.solver_propagations);
  f("counter_solver_rebuilds", s.counter_solver_rebuilds);
  f("total_xor_row_length", s.total_xor_row_length);
  f("total_xor_rows", s.total_xor_rows);
}

template <class F>
void visit_fields(const SamplerPoolWorkerStats& s, F&& f) {
  f("requests_served", s.requests_served);
  f("solver_rebuilds", s.solver_rebuilds);
  f("reused_solves", s.reused_solves);
  f("sample_bsat_calls", s.sample_bsat_calls);
  f("bsat_timeout_retries", s.bsat_timeout_retries);
  f("total_xor_rows", s.total_xor_rows);
  f("total_xor_row_length", s.total_xor_row_length);
}

template <class F>
void visit_fields(const SamplerPoolStats& s, F&& f) {
  f("requests", s.requests);
  f("samples_ok", s.samples_ok);
  f("samples_failed", s.samples_failed);
  f("samples_timed_out", s.samples_timed_out);
  f("samples_cancelled", s.samples_cancelled);
  f("service_seconds", s.service_seconds);
}

template <class F>
void visit_fields(const SessionRegistryStats& s, F&& f) {
  f("requests", s.requests);
  f("hits", s.hits);
  f("misses", s.misses);
  f("evictions", s.evictions);
  f("prepare_failures", s.prepare_failures);
  f("sessions", s.sessions);
  f("resident_bytes", s.resident_bytes);
}

/// Appends `"name":value` to `out`, comma-separated from earlier fields.
struct FieldWriter {
  std::string* out;
  template <class T>
  void operator()(const char* name, const T& value) const {
    char buf[32];
    const char* text = buf;
    if constexpr (std::is_same_v<T, bool>) {
      text = value ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<T>) {
      std::snprintf(buf, sizeof(buf), "%.17g", static_cast<double>(value));
    } else if constexpr (std::is_signed_v<T>) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    } else {
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(value));
    }
    if (!out->empty()) *out += ',';
    *out += '"';
    *out += name;
    *out += "\":";
    *out += text;
  }
};

/// A struct's flat fields, without the enclosing braces.
template <class S>
std::string fields_of(const S& s) {
  std::string out;
  visit_fields(s, FieldWriter{&out});
  return out;
}

}  // namespace

std::string to_json(const SimplifyStats& s) { return '{' + fields_of(s) + '}'; }

std::string to_json(const SamplerPoolWorkerStats& s) {
  return '{' + fields_of(s) + '}';
}

std::string to_json(const SessionRegistryStats& s) {
  return '{' + fields_of(s) + '}';
}

std::string to_json(const UniGenStats& s) {
  return '{' + fields_of(s) + ",\"simplify\":" + to_json(s.simplify) + '}';
}

std::string to_json(const SamplerPoolStats& s) {
  std::string out = '{' + fields_of(s) + ",\"prepare\":" +
                    to_json(s.prepare) + ",\"workers\":[";
  for (std::size_t w = 0; w < s.workers.size(); ++w) {
    if (w != 0) out += ',';
    out += to_json(s.workers[w]);
  }
  return out + "]}";
}

}  // namespace unigen::obs
