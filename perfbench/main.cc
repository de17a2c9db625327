// erlb_perfbench: the compiled half of the repository benchmark.
// perfbench/run.py builds it and calls its subcommands; each prints one
// JSON line on stdout.
//
//   erlb_perfbench prepare <workload> <seed> <dir>
//   erlb_perfbench batch <workload> <dir> <strategy|-> <traced 0|1>
//   erlb_perfbench serve <seed> <seconds> <traced 0|1> <dir>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: erlb_perfbench prepare <workload> <seed> <dir>\n"
               "       erlb_perfbench batch <workload> <dir> "
               "<strategy|-> <traced>\n"
               "       erlb_perfbench serve <seed> <seconds> <traced> "
               "<dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "prepare" && argc == 5) {
    return perfbench::PrepareBatch(argv[2], std::strtoull(argv[3], nullptr, 10),
                                   argv[4]);
  }
  if (command == "batch" && argc == 6) {
    const std::string strategy = argv[4];
    return perfbench::RunBatch(argv[2], argv[3],
                               strategy == "-" ? "" : strategy,
                               std::string(argv[5]) == "1");
  }
  if (command == "serve" && argc == 6) {
    return perfbench::RunServe(std::strtoull(argv[2], nullptr, 10),
                               std::strtod(argv[3], nullptr),
                               std::string(argv[4]) == "1", argv[5]);
  }
  return Usage();
}
