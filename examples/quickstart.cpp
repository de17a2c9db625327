// Quickstart: deduplicate a small product catalog with the load-balanced
// two-job MapReduce workflow (BDM + BlockSplit).
//
//   $ ./quickstart
//
// Walks through the library's core API: entities, a blocking function, a
// matcher, the pipeline, and the match result.
#include <cstdio>

#include "core/pipeline.h"
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

  // 4. Configure the MR pipeline: m map tasks, r reduce tasks, and the
  //    BlockSplit load balancing strategy (PairRange and Basic are the
  //    alternatives).
  core::ErPipelineConfig config;
  config.strategy = lb::StrategyKind::kBlockSplit;
  config.num_map_tasks = 2;
  config.num_reduce_tasks = 4;
  core::ErPipeline pipeline(config);

  // 5. Run: Job 1 computes the block distribution matrix (BDM), Job 2
  //    redistributes and matches.
  auto result = pipeline.Deduplicate(catalog, blocking, matcher);
  if (!result.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("blocks: %u   candidate pairs compared: %lld\n",
              result->bdm.num_blocks(),
              static_cast<long long>(result->comparisons));
  std::printf("matches found: %zu\n", result->matches.size());
  for (const auto& pair : result->matches.pairs()) {
    std::printf("  %llu <-> %llu\n",
                static_cast<unsigned long long>(pair.first),
                static_cast<unsigned long long>(pair.second));
  }
  return 0;
}
