// Pinned output digests: seed-fixed SamplerPool streams (1 and 4 threads)
// and an approx_count result, hashed and compared with constants recorded
// on the restart-per-model enumeration loop, before one continuing search
// per cell replaced it.
//
// Cells are enumerated exhaustively over S and sorted canonically, so every
// reported byte is independent of the solver's search order.  A solver
// change that is meant to be a pure speed change must leave these digests
// untouched; a digest that moves means the change leaked into the output.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "counting/approxmc.hpp"
#include "helpers.hpp"
#include "service/sampler_pool.hpp"
#include "workloads/sketch.hpp"

namespace unigen {
namespace {

/// FNV-1a over a byte stream.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  void add(const Model& m) {
    add(m.size());
    for (const lbool v : m) add(static_cast<std::uint64_t>(v));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

Cnf sketch_formula() {
  workloads::SketchOptions o;
  o.spec_input_bits = 4;
  o.selector_bits = 8;
  o.mode_bits = 8;
  o.threshold = 200;
  o.seed = 5;
  return workloads::make_sketch_bench(o, "digest_sketch").cnf;
}

Cnf random_3cnf_formula() {
  Rng rng(2024);
  return test::random_cnf(22, 60, 3, rng);
}

std::uint64_t stream_digest(const Cnf& cnf, std::size_t threads) {
  SamplerPoolOptions o;
  o.num_threads = threads;
  o.seed = 0xD16E57;
  SamplerPool pool(cnf, o);
  Digest d;
  for (const SampleResult& r : pool.sample_many(48)) {
    d.add(static_cast<std::uint64_t>(r.status));
    d.add(r.witness);
  }
  for (const BatchResult& b : pool.sample_batches(6, 8)) {
    d.add(static_cast<std::uint64_t>(b.status));
    for (const Model& m : b.models) d.add(m);
  }
  return d.value();
}

std::uint64_t count_digest(const Cnf& cnf) {
  ApproxMcOptions o;  // serial: the probe count is then deterministic too
  Rng rng(0xC0FFEE);
  const ApproxMcResult r = approx_count(cnf, o, rng);
  Digest d;
  d.add(r.valid ? 1u : 0u);
  d.add(r.cell_count);
  d.add(r.hash_count);
  d.add(r.bsat_calls);
  return d.value();
}

struct Pinned {
  const char* name;
  Cnf (*formula)();
  std::uint64_t stream;
  std::uint64_t count;
};

const Pinned kPinned[] = {
    {"sketch", sketch_formula, 0x4006431a04c14565ull, 0xe0bb43248050aa3full},
    {"random_3cnf", random_3cnf_formula, 0x13ee0db28f016344ull,
     0x0913817f0b1a9cb3ull},
};

TEST(StreamDigests, SamplerPoolStreamsMatchPinnedDigests) {
  for (const Pinned& p : kPinned) {
    const Cnf cnf = p.formula();
    for (const std::size_t threads : {1u, 4u}) {
      EXPECT_EQ(stream_digest(cnf, threads), p.stream)
          << p.name << " at " << threads << " threads";
    }
  }
}

TEST(StreamDigests, ApproxCountMatchesPinnedDigest) {
  for (const Pinned& p : kPinned)
    EXPECT_EQ(count_digest(p.formula()), p.count) << p.name;
}

}  // namespace
}  // namespace unigen
