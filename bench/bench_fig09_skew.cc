// Figure 9: robustness against data skew. Block sizes follow e^(-s*k)
// over b=100 blocks; n=10 nodes, m=20 map tasks, r=100 reduce tasks. The
// series is the average execution time per 10^4 pairs for Basic,
// BlockSplit and PairRange as the skew factor s grows from 0 to 1.
//
// Expected shape (paper): Basic degrades by an order of magnitude with
// rising skew (225 ms/10^4 pairs at s=1, >12x slower than the balanced
// strategies); Basic is fastest at s=0 (no BDM job); BlockSplit and
// PairRange stay flat with a small PairRange edge.
#include <cstdio>

#include "bench_common.h"
#include "common/string_util.h"
#include "core/table.h"
#include "gen/skew_gen.h"

int main() {
  using namespace erlb;
  std::printf("=== Figure 9: execution times for different data skews ===\n");
  std::printf("n=10 nodes, m=20, r=100, b=100 blocks, |block_k| ~ e^(-s*k)\n\n");

  const uint32_t kNodes = 10, kMapTasks = 20, kReduceTasks = 100;
  auto cost = bench::PaperCostModel();
  er::AttributeBlocking blocking(gen::kSkewBlockField);

  core::TextTable table;
  table.SetHeader({"s", "pairs", "Basic ms/10^4", "BlockSplit ms/10^4",
                   "PairRange ms/10^4", "Basic/BlockSplit"});

  for (double s : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    gen::SkewConfig cfg;
    cfg.num_entities = bench::Ds1Entities();
    cfg.num_blocks = 100;
    cfg.skew = s;
    auto entities = gen::GenerateSkewed(cfg);
    if (!entities.ok()) {
      std::fprintf(stderr, "%s\n", entities.status().ToString().c_str());
      return 1;
    }
    auto bdm = bench::BuildBdm(*entities, blocking, kMapTasks);
    const double pairs = static_cast<double>(bdm.TotalPairs());

    double per_1e4[3] = {0, 0, 0};
    int i = 0;
    for (auto kind : lb::AllStrategyKinds()) {
      auto res = bench::Simulate(kind, bdm, kReduceTasks, kNodes, cost);
      per_1e4[i++] = res.total_s * 1000.0 / (pairs / 1e4);
    }
    table.AddRow({bench::Fmt(s, 1), FormatWithCommas(bdm.TotalPairs()),
                  bench::Fmt(per_1e4[0], 1), bench::Fmt(per_1e4[1], 1),
                  bench::Fmt(per_1e4[2], 1),
                  bench::Fmt(per_1e4[0] / per_1e4[1], 1) + "x"});
  }
  table.Print();
  std::printf(
      "\nPaper: at s=1 Basic needs ~225 ms per 10^4 comparisons, >12x the\n"
      "balanced strategies; at s=0 Basic is fastest (no BDM overhead);\n"
      "BlockSplit and PairRange are stable across all skews.\n");
  return 0;
}
