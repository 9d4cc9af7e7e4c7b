// qgear_perfbench: runs one benchmark workload and prints its metrics.
//
//   qgear_perfbench --workload <sv24|batch10|dist22|serve12> --seed <n>
//                   --seconds <s> --trace <0|1> [--workdir <dir>]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 a traced pass adds the per-layer metrics instead. Exits
// non-zero, without a result line, on bad arguments or a thrown error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: qgear_perfbench --workload <sv24|batch10|dist22|"
               "serve12> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      cfg.trace = val == "1";
    } else if (key == "--workdir") {
      cfg.workdir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || cfg.seconds <= 0) return usage();

  void (*run)(const perfbench::Config&, perfbench::Report&) = nullptr;
  if (cfg.workload == "sv24") run = perfbench::run_sv24;
  if (cfg.workload == "batch10") run = perfbench::run_batch10;
  if (cfg.workload == "dist22") run = perfbench::run_dist22;
  if (cfg.workload == "serve12") run = perfbench::run_serve12;
  if (run == nullptr) return usage();

  perfbench::Report report;
  try {
    run(cfg, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qgear_perfbench: %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }
  report.print();
  return 0;
}
