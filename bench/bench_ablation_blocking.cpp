// Ablation D — blocking clauses restricted to the sampling set S (paper
// Section 4, "Implementation issues": the CryptoMiniSAT change credited to
// Mate Soos).  On a formula whose independent support is much smaller than
// its Tseitin support, enumerate the same number of witnesses with
// S-restricted blocking clauses vs full-support blocking clauses.
//
// Expected shape: S-restricted blocking yields shorter clauses and lower
// enumeration time; with S an independent support both enumerate the same
// witness set.  "lits/clause" is the measured mean length of the blocks
// added: at most |S| (resp. |X|), and shorter when a model is blocked on
// its decision literals alone (sat/enumerator.hpp).

#include <cstdio>

#include "common.hpp"
#include "sat/enumerator.hpp"
#include "workloads/sketch.hpp"

int main() {
  using namespace unigen;
  using namespace unigen::bench;
  const auto want = env_u64("UNIGEN_BLOCKING_MODELS", 600);

  workloads::SketchOptions sk;
  sk.spec_input_bits = 6;
  sk.selector_bits = 18;
  sk.mode_bits = 12;
  sk.threshold = static_cast<std::uint64_t>(want);
  sk.seed = 31;
  const auto bench = workloads::make_sketch_bench(sk, "ablation_blocking");
  const Cnf& cnf = bench.cnf;
  std::printf("Ablation: blocking clauses over S vs over X\ninstance: %s, "
              "enumerating up to %llu witnesses\n\n",
              cnf.summary().c_str(), static_cast<unsigned long long>(want));
  std::printf("%-22s %10s %12s %12s %12s\n", "blocking set", "witnesses",
              "time (s)", "set size", "lits/clause");

  for (const bool restrict_to_s : {true, false}) {
    Solver solver;
    solver.load(cnf);
    EnumerateOptions eopts;
    eopts.max_models = want;
    eopts.store_models = false;
    if (restrict_to_s) {
      eopts.projection = cnf.sampling_set_or_all();
    } else {
      std::vector<Var> all(static_cast<std::size_t>(cnf.num_vars()));
      for (Var v = 0; v < cnf.num_vars(); ++v)
        all[static_cast<std::size_t>(v)] = v;
      eopts.projection = all;
    }
    const Stopwatch watch;
    const auto result = enumerate_models(solver, eopts);
    const double secs = watch.seconds();
    const double lits_per_clause =
        result.blocks_added == 0
            ? 0.0
            : static_cast<double>(result.block_literals) /
                  static_cast<double>(result.blocks_added);
    std::printf("%-22s %10llu %12.3f %12zu %12.2f\n",
                restrict_to_s ? "sampling set S" : "full support X",
                static_cast<unsigned long long>(result.count), secs,
                eopts.projection.size(), lits_per_clause);
    std::fflush(stdout);
  }
  return 0;
}
