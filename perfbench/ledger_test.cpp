// Self-test of the span ledger (ledger.hpp) on synthetic span trees.  Run by
// run.py before every benchmark run; exits non-zero on the first failure.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "ledger.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

perfbench::SpanNode span(std::uint64_t id, std::uint64_t parent,
                         std::uint64_t start, std::uint64_t end,
                         const char* name) {
  return perfbench::SpanNode{id, parent, start, end, name};
}

std::uint64_t sum(const std::map<std::string, std::uint64_t>& m) {
  std::uint64_t total = 0;
  for (const auto& [name, ns] : m) total += ns;
  return total;
}

void union_of_overlaps() {
  using perfbench::covered_ns;
  check(covered_ns({}, 0, 100) == 0, "empty union");
  check(covered_ns({{10, 60}, {20, 90}, {30, 40}}, 0, 100) == 80,
        "overlapping intervals merge");
  check(covered_ns({{10, 20}, {20, 30}}, 0, 100) == 20, "touching intervals");
  check(covered_ns({{0, 50}, {90, 200}}, 10, 100) == 50,
        "intervals clipped to the window");
  check(covered_ns({{150, 200}}, 0, 100) == 0, "interval outside the window");
}

// A pool.request fanning out to three overlapping workers: the sum of child
// durations (130) exceeds the parent (100); the union (80) does not.
void fan_out_self_time_is_never_negative() {
  const perfbench::SpanTree tree({
      span(1, 0, 0, 100, "pool.request"),
      span(2, 1, 10, 60, "sample.request"),
      span(3, 1, 20, 90, "sample.request"),
      span(4, 1, 30, 40, "sample.request"),
  });
  check(tree.roots().size() == 1, "one root");
  check(tree.self_ns(0) == 20, "fan-out parent self = duration - union");
  check(tree.self_ns(1) == 50 && tree.self_ns(2) == 70 && tree.self_ns(3) == 10,
        "leaf self = duration");
}

// A child running past its parent's end counts only inside the parent.
void child_clipped_to_parent() {
  const perfbench::SpanTree tree({
      span(1, 0, 100, 200, "fleet.attempt"),
      span(2, 1, 150, 230, "worker.task"),
  });
  check(tree.self_ns(0) == 50, "overhanging child clipped");
}

void blocking_path_covers_the_root_exactly() {
  // request [0,100]: acquire [0,10], pool [12,100] with workers A [15,70]
  // and B [20,95]; B has a probe [30,80] with a bsat call [40,75].
  const perfbench::SpanTree tree({
      span(1, 0, 0, 100, "bench.request"),
      span(2, 1, 0, 10, "bench.acquire"),
      span(3, 1, 12, 100, "bench.pool_call"),
      span(4, 3, 15, 70, "sample.request"),
      span(5, 3, 20, 95, "sample.request"),
      span(6, 5, 30, 80, "hash.probe"),
      span(7, 6, 40, 75, "bsat.call"),
  });
  std::map<std::string, std::uint64_t> path;
  tree.blocking_path(tree.roots().front(), path);
  check(sum(path) == 100, "path attributions sum to the root duration");
  // Walk back from 100: pool_call self [95,100]; B blocks [20,95] with its
  // probe [30,80] and call [40,75]; before B starts, A blocks [15,20];
  // pool_call self [12,15]; root gap [10,12]; acquire [0,10].
  check(path["bench.pool_call"] == 8, "pool_call path self");
  check(path["bsat.call"] == 35, "bsat.call on path");
  check(path["hash.probe"] == 15, "probe self on path");
  check(path["sample.request"] == 25 + 5, "workers on path");
  check(path["bench.request"] == 2, "root gap");
  check(path["bench.acquire"] == 10, "acquire on path");
}

void orphans_become_roots() {
  const perfbench::SpanTree tree({
      span(1, 0, 0, 10, "bench.request"),
      span(2, 99, 2, 4, "bsat.call"),
  });
  check(tree.roots().size() == 2, "unresolved parent makes a second root");
}

}  // namespace

int main() {
  union_of_overlaps();
  fan_out_self_time_is_never_negative();
  child_clipped_to_parent();
  blocking_path_covers_the_root_exactly();
  orphans_become_roots();
  if (g_failures != 0) return EXIT_FAILURE;
  std::fprintf(stderr, "perfbench_ledger_test: all checks passed\n");
  return EXIT_SUCCESS;
}
