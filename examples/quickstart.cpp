// Quickstart: deduplicate a small product catalog with the load-balanced
// two-job MapReduce workflow (BDM + BlockSplit).
//
//   $ ./quickstart
//
// Walks through the library's core API: entities, a blocking function, a
// matcher, the dataflow graph that runs the workflow, and the match
// result.
#include <cstdio>

#include "core/dataflow.h"
#include "core/stages.h"
#include "er/blocking.h"
#include "er/matcher.h"

using namespace erlb;

int main() {
  // 1. A handful of product records. fields[0] is the title.
  std::vector<er::Entity> catalog;
  auto add = [&catalog](uint64_t id, const char* title) {
    er::Entity e;
    e.id = id;
    e.fields = {title};
    catalog.push_back(std::move(e));
  };
  add(1, "canon eos 5d mark iii");
  add(2, "canon eos 5d mark 3");       // duplicate of 1
  add(3, "canon powershot sx710");
  add(4, "nikon d750 dslr body");
  add(5, "nikon d750 dslr body kit");  // duplicate of 4
  add(6, "nikon coolpix b500");
  add(7, "sony alpha 7 ii");
  add(8, "sony alpha 7ii");            // duplicate of 7
  add(9, "sony walkman nw-a45");

  // 2. Blocking: the paper's default — first three letters of the title.
  //    Only entities in the same block are compared.
  er::PrefixBlocking blocking(/*field=*/0, /*length=*/3);

  // 3. Matching: normalized edit distance >= 0.8 (the paper's matcher).
  er::EditDistanceMatcher matcher(/*threshold=*/0.8);

  // 4. Build the dataflow graph: a source stage splits the catalog into
  //    m = 2 map partitions, and the standard chain adds Job 1 (the block
  //    distribution matrix, BDM), the BlockSplit plan over r = 4 reduce
  //    tasks, and Job 2, which redistributes and matches. PairRange and
  //    Basic are the alternative strategies.
  core::Dataflow df;
  df.Emplace<core::EntitySourceStage>("source", core::kDatasetPartitions,
                                      &catalog, /*num_partitions=*/2);
  core::StandardGraphOptions graph;
  graph.strategy = lb::StrategyKind::kBlockSplit;
  graph.num_reduce_tasks = 4;
  auto fail = [](const Status& status) {
    std::fprintf(stderr, "pipeline failed: %s\n", status.ToString().c_str());
    return 1;
  };
  Status built = core::AddStandardGraph(&df, graph, &blocking, &matcher);
  if (!built.ok()) return fail(built);

  // 5. Run it and read the matches and the per-stage report.
  auto report = df.Run();
  if (!report.ok()) return fail(report.status());
  const er::MatchResult& matches =
      **df.Get<er::MatchResult>(core::kDatasetMatches);

  std::printf("blocks: %u   candidate pairs compared: %lld\n",
              (*df.Get<bdm::Bdm>(core::kDatasetBdm))->num_blocks(),
              static_cast<long long>(report->TotalComparisons()));
  std::printf("matches found: %zu\n", matches.size());
  for (const auto& pair : matches.pairs()) {
    std::printf("  %llu <-> %llu\n",
                static_cast<unsigned long long>(pair.first),
                static_cast<unsigned long long>(pair.second));
  }
  return 0;
}
