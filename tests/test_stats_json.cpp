// Byte-exact coverage of the stats-struct JSON writer (src/obs/stats_json.*).
// Every field of each struct is set to a distinct value and the output is
// compared with a golden string.  The goldens were recorded from the
// previous, document-model writer, so they also pin the encoding the CLIs'
// --stats-json files have always had: exact integers up to UINT64_MAX and
// INT_MIN, %.17g doubles, true/false, and the nested simplify, prepare and
// workers members.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "obs/stats_json.hpp"

namespace unigen {
namespace {

/// Every field set to a distinct value, so a field written under the wrong
/// name, in the wrong order or with the wrong format changes the bytes.
SimplifyStats simplify_stats() {
  SimplifyStats s;
  s.ran = true;
  s.unsat = false;
  s.rounds = 3;
  s.original_clauses = 101;
  s.original_literals = 102;
  s.result_clauses = 103;
  s.result_literals = 104;
  s.units_fixed = 105;
  s.tautologies_removed = 106;
  s.pure_literals_fixed = 107;
  s.subsumed_clauses = 108;
  s.strengthened_literals = 109;
  s.eliminated_vars = 110;
  s.seconds = 0.1;  // needs all 17 significant digits
  return s;
}

UniGenStats unigen_stats() {
  UniGenStats s;
  s.kappa = 1.0 / 3.0;
  s.pivot = std::numeric_limits<std::uint64_t>::max();
  s.hi_thresh = 202;
  s.lo_thresh = 18.25;
  s.approx_log2_count = -2.5;
  s.q = std::numeric_limits<int>::min();
  s.prepare_seconds = 2.5e-7;
  s.prepare_bsat_calls = 203;
  s.trivial = true;
  s.samples_requested = 204;
  s.samples_ok = 205;
  s.samples_failed = 206;
  s.samples_timed_out = 207;
  s.samples_cancelled = 208;
  s.sample_bsat_calls = 209;
  s.bsat_timeout_retries = 210;
  s.sample_seconds = 1e300;
  s.solver_rebuilds = 211;
  s.reused_solves = 212;
  s.retracted_blocks = 213;
  s.solver_propagations = 214;
  s.counter_solver_rebuilds = 215;
  s.simplify = simplify_stats();
  s.total_xor_row_length = 0.0;
  s.total_xor_rows = 216;
  return s;
}

SamplerPoolWorkerStats worker_stats(std::uint64_t base) {
  SamplerPoolWorkerStats s;
  s.requests_served = base + 1;
  s.solver_rebuilds = base + 2;
  s.reused_solves = base + 3;
  s.sample_bsat_calls = base + 4;
  s.bsat_timeout_retries = base + 5;
  s.total_xor_rows = base + 6;
  s.total_xor_row_length = static_cast<double>(base) + 0.5;
  return s;
}

SamplerPoolStats pool_stats() {
  SamplerPoolStats s;
  s.prepare = unigen_stats();
  s.requests = 401;
  s.samples_ok = 402;
  s.samples_failed = 403;
  s.samples_timed_out = 404;
  s.samples_cancelled = 405;
  s.service_seconds = 2.25;
  s.workers = {worker_stats(300), worker_stats(310)};
  return s;
}

SessionRegistryStats registry_stats() {
  SessionRegistryStats s;
  s.requests = 501;
  s.hits = 502;
  s.misses = 503;
  s.evictions = 504;
  s.prepare_failures = 505;
  s.sessions = 506;
  s.resident_bytes = std::numeric_limits<std::size_t>::max();
  return s;
}

const std::string kSimplifyJson =
    R"({"ran":true,"unsat":false,"rounds":3,"original_clauses":101,)"
    R"("original_literals":102,"result_clauses":103,)"
    R"("result_literals":104,"units_fixed":105,)"
    R"("tautologies_removed":106,"pure_literals_fixed":107,)"
    R"("subsumed_clauses":108,"strengthened_literals":109,)"
    R"("eliminated_vars":110,"seconds":0.10000000000000001})";

const std::string kUniGenJson =
    R"({"kappa":0.33333333333333331,"pivot":18446744073709551615,)"
    R"("hi_thresh":202,"lo_thresh":18.25,"approx_log2_count":-2.5,)"
    R"("q":-2147483648,"prepare_seconds":2.4999999999999999e-07,)"
    R"("prepare_bsat_calls":203,"trivial":true,)"
    R"("samples_requested":204,"samples_ok":205,)"
    R"("samples_failed":206,"samples_timed_out":207,)"
    R"("samples_cancelled":208,"sample_bsat_calls":209,)"
    R"("bsat_timeout_retries":210,)"
    R"("sample_seconds":1.0000000000000001e+300,)"
    R"("solver_rebuilds":211,"reused_solves":212,)"
    R"("retracted_blocks":213,"solver_propagations":214,)"
    R"("counter_solver_rebuilds":215,"total_xor_row_length":0,)"
    R"("total_xor_rows":216)"
    R"(,"simplify":)" + kSimplifyJson + "}";

const std::string kWorker300Json =
    R"({"requests_served":301,"solver_rebuilds":302,)"
    R"("reused_solves":303,"sample_bsat_calls":304,)"
    R"("bsat_timeout_retries":305,"total_xor_rows":306,)"
    R"("total_xor_row_length":300.5})";

const std::string kWorker310Json =
    R"({"requests_served":311,"solver_rebuilds":312,)"
    R"("reused_solves":313,"sample_bsat_calls":314,)"
    R"("bsat_timeout_retries":315,"total_xor_rows":316,)"
    R"("total_xor_row_length":310.5})";

TEST(StatsJson, SimplifyStatsBytes) {
  EXPECT_EQ(obs::to_json(simplify_stats()), kSimplifyJson);
}

TEST(StatsJson, UniGenStatsBytesNestSimplify) {
  EXPECT_EQ(obs::to_json(unigen_stats()), kUniGenJson);
}

TEST(StatsJson, SamplerPoolWorkerStatsBytes) {
  EXPECT_EQ(obs::to_json(worker_stats(300)), kWorker300Json);
}

TEST(StatsJson, SamplerPoolStatsBytesNestPrepareAndWorkers) {
  const std::string golden =
      R"({"requests":401,"samples_ok":402,"samples_failed":403,)"
      R"("samples_timed_out":404,"samples_cancelled":405,)"
      R"("service_seconds":2.25)"
      R"(,"prepare":)" + kUniGenJson + R"(,"workers":[)" + kWorker300Json +
      "," + kWorker310Json + "]}";
  EXPECT_EQ(obs::to_json(pool_stats()), golden);
}

TEST(StatsJson, DefaultSamplerPoolStatsBytes) {
  const std::string golden =
      R"({"requests":0,"samples_ok":0,"samples_failed":0,)"
      R"("samples_timed_out":0,"samples_cancelled":0,)"
      R"("service_seconds":0,"prepare":{"kappa":0,"pivot":0,)"
      R"("hi_thresh":0,"lo_thresh":0,"approx_log2_count":0,"q":0,)"
      R"("prepare_seconds":0,"prepare_bsat_calls":0,"trivial":false,)"
      R"("samples_requested":0,"samples_ok":0,"samples_failed":0,)"
      R"("samples_timed_out":0,"samples_cancelled":0,)"
      R"("sample_bsat_calls":0,"bsat_timeout_retries":0,)"
      R"("sample_seconds":0,"solver_rebuilds":0,"reused_solves":0,)"
      R"("retracted_blocks":0,"solver_propagations":0,)"
      R"("counter_solver_rebuilds":0,"total_xor_row_length":0,)"
      R"("total_xor_rows":0,"simplify":{"ran":false,"unsat":false,)"
      R"("rounds":0,"original_clauses":0,"original_literals":0,)"
      R"("result_clauses":0,"result_literals":0,"units_fixed":0,)"
      R"("tautologies_removed":0,"pure_literals_fixed":0,)"
      R"("subsumed_clauses":0,"strengthened_literals":0,)"
      R"("eliminated_vars":0,"seconds":0}},"workers":[]})";
  EXPECT_EQ(obs::to_json(SamplerPoolStats{}), golden);
}

TEST(StatsJson, SessionRegistryStatsBytes) {
  EXPECT_EQ(obs::to_json(registry_stats()),
            R"({"requests":501,"hits":502,"misses":503,"evictions":504,)"
            R"("prepare_failures":505,"sessions":506,)"
            R"("resident_bytes":18446744073709551615})");
}

TEST(StatsJson, StatusMappingHelperIsTotal) {
  using S = SampleResult::Status;
  EXPECT_EQ(sample_status_from_request(RequestStatus::kComplete), S::kOk);
  EXPECT_EQ(sample_status_from_request(RequestStatus::kTimedOut),
            S::kTimeout);
  EXPECT_EQ(sample_status_from_request(RequestStatus::kCancelled),
            S::kCancelled);
  EXPECT_EQ(sample_status_from_request(RequestStatus::kFailed), S::kFail);
  EXPECT_EQ(sample_status_from_request(RequestStatus::kPartial), S::kFail);
}

}  // namespace
}  // namespace unigen
