// Exports the generated benchmark suite as DIMACS files (with `c ind`
// sampling-set lines and native `x` XOR clauses), so the instances can be
// fed to external tools — or back into `unigen sample`.
//
//   usage: export_suite [output_dir=./suite_cnf] [scale=0.1]

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "cnf/dimacs.hpp"
#include "workloads/circuits.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace unigen;
  const std::string dir = argc > 1 ? argv[1] : "./suite_cnf";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.1;

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  std::size_t exported = 0;
  for (const auto& instance : workloads::make_table2_suite(scale)) {
    const std::string path = dir + "/" + instance.name + ".cnf";
    write_dimacs_file(instance.cnf, path);
    std::printf("%-26s -> %s  (%s)\n", instance.name.c_str(), path.c_str(),
                instance.cnf.summary().c_str());
    ++exported;
  }
  // The Figure-1 instance as well.
  const auto fig1 = workloads::make_case110_like(24, 15);
  const std::string path = dir + "/case110_like.cnf";
  write_dimacs_file(fig1.cnf, path);
  std::printf("%-26s -> %s  (|R_F| = %s)\n", "case110_like", path.c_str(),
              fig1.witness_count.to_string().c_str());

  std::printf("\nexported %zu instances; sample one with:\n"
              "  ./unigen sample --samples 5 %s\n", exported + 1, path.c_str());
  return 0;
}
