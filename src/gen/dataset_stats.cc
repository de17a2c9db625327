#include "gen/dataset_stats.h"

namespace erlb {
namespace gen {

Result<DatasetStats> ComputeDatasetStats(
    const std::vector<er::Entity>& entities,
    const er::BlockingFunction& blocking) {
  std::vector<std::vector<std::string>> keys(1);
  keys[0].reserve(entities.size());
  for (const auto& e : entities) {
    keys[0].push_back(blocking.Key(e));
  }
  ERLB_ASSIGN_OR_RETURN(bdm::Bdm b, bdm::Bdm::FromKeys(keys));
  return ComputeDatasetStats(b);
}

DatasetStats ComputeDatasetStats(const bdm::Bdm& bdm) {
  DatasetStats s;
  s.num_entities = bdm.TotalEntities();
  s.num_blocks = bdm.num_blocks();
  s.total_pairs = bdm.TotalPairs();
  if (bdm.num_blocks() > 0) {
    const bdm::Bdm::BlockView largest = bdm.view(bdm.LargestBlock());
    s.largest_block_size = largest.size();
    s.largest_block_pairs = largest.pairs();
  }
  if (s.num_entities > 0) {
    s.largest_block_entity_share =
        static_cast<double>(s.largest_block_size) / s.num_entities;
    s.pairs_per_entity =
        static_cast<double>(s.total_pairs) / s.num_entities;
  }
  if (s.total_pairs > 0) {
    s.largest_block_pair_share =
        static_cast<double>(s.largest_block_pairs) / s.total_pairs;
  }
  return s;
}

}  // namespace gen
}  // namespace erlb
