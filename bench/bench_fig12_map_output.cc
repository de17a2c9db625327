// Figure 12: number of key-value pairs emitted by the map phase of the
// matching job vs. r, for all three strategies on DS1. Exact counts from
// the plan (no cost model involved).
//
// Expected shape (paper): Basic is constant (= input size, no
// replication); BlockSplit is a step function that flattens out (already-
// split blocks don't grow with r); PairRange grows almost linearly with r
// and overtakes BlockSplit for large r.
#include <cstdio>

#include "bench_common.h"
#include "common/string_util.h"
#include "core/table.h"

int main() {
  using namespace erlb;
  std::printf(
      "=== Figure 12: map output key-value pairs vs. r (DS1, m=20) ===\n\n");

  const uint32_t kMapTasks = 20;
  auto entities = bench::MakeDs1();
  er::PrefixBlocking blocking(0, 3);
  auto bdm = bench::BuildBdm(entities, blocking, kMapTasks);

  core::TextTable table;
  table.SetHeader({"r", "Basic", "BlockSplit", "PairRange"});
  lb::MatchJobOptions options;
  for (uint32_t r = 20; r <= 640; r *= 2) {
    options.num_reduce_tasks = r;
    std::vector<std::string> row{std::to_string(r)};
    for (auto kind : lb::AllStrategyKinds()) {
      auto plan = lb::MakeStrategy(kind)->Plan(bdm, options);
      if (!plan.ok()) {
        std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
        return 1;
      }
      row.push_back(FormatWithCommas(plan->TotalMapOutputPairs()));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nInput entities: %s\n"
      "Paper: Basic == input size for every r; BlockSplit grows step-wise\n"
      "and saturates; PairRange grows ~linearly with r and emits the most\n"
      "for large r.\n",
      FormatWithCommas(entities.size()).c_str());
  return 0;
}
