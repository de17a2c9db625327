// Record linkage between two sources (Appendix I): link a clean product
// catalog R against a noisy offer feed S, including entities without a
// valid blocking key via the appendix's decomposition
//   match_B(R,S) = match_B(R−R∅, S−S∅) ∪ match_⊥(R, S∅)
//                  ∪ match_⊥(R∅, S−S∅).
//
//   $ ./two_source_linkage
#include <cstdio>

#include "common/random.h"
#include "common/string_util.h"
#include "core/dataflow.h"
#include "core/stages.h"
#include "er/blocking.h"
#include "er/matcher.h"
#include "gen/perturb.h"
#include "gen/product_gen.h"

using namespace erlb;

int main() {
  // R: catalog of 3000 products.
  gen::ProductConfig cfg_r;
  cfg_r.num_entities = 3000;
  cfg_r.duplicate_fraction = 0.0;  // catalog is clean
  cfg_r.seed = 51;
  auto catalog = gen::GenerateProducts(cfg_r);
  if (!catalog.ok()) return 1;

  // S: offer feed — perturbed copies of catalog titles plus unrelated
  // offers; a few offers have an unusable (empty) title.
  Pcg32 rng(77);
  std::vector<er::Entity> offers;
  uint64_t next_id = 1000000;
  for (const auto& product : *catalog) {
    if (rng.NextDouble() < 0.4) {
      er::Entity offer;
      offer.id = next_id++;
      offer.fields = {gen::Perturb(product.title(), 2, 3, &rng)};
      offers.push_back(std::move(offer));
    }
  }
  for (int i = 0; i < 25; ++i) {  // offers without a blocking key
    er::Entity offer;
    offer.id = next_id++;
    offer.fields = {""};
    offers.push_back(std::move(offer));
  }
  std::printf("catalog R: %zu products; offer feed S: %zu offers "
              "(25 without usable title)\n\n",
              catalog->size(), offers.size());

  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);

  for (auto kind :
       {lb::StrategyKind::kBlockSplit, lb::StrategyKind::kPairRange}) {
    core::StandardGraphOptions graph;
    graph.strategy = kind;
    graph.num_reduce_tasks = 12;

    // Plain linkage: one source stage over R and S (m = 6 map tasks split
    // between them by size) feeding the standard chain...
    core::Dataflow plain;
    plain.Emplace<core::EntitySourceStage>(
        "source", core::kDatasetPartitions, &*catalog, 6, nullptr, &offers);
    Status status = core::AddStandardGraph(&plain, graph, &blocking, &matcher);
    if (status.ok()) status = plain.Run().status();
    if (!status.ok()) {
      // ...fails on S entities without a key under the default
      // missing-key policy, as it should:
      std::printf("%s, plain linkage: %s\n", lb::StrategyKindToName(kind),
                  status.ToString().c_str());
    }

    // The appendix decomposition handles them via the constant key ⊥.
    core::Dataflow full;
    status = core::AddMissingKeyGraph(&full, graph, 6, &*catalog, &offers,
                                      &blocking, &matcher);
    if (status.ok()) status = full.Run().status();
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    const size_t linked =
        (*full.Get<er::MatchResult>(core::kDatasetMatches))->size();
    std::printf("%s with missing-key decomposition: %s linked pairs\n\n",
                lb::StrategyKindToName(kind),
                FormatWithCommas(linked).c_str());
  }
  return 0;
}
