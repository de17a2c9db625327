// Entity model: a record with a unique id and a fixed set of string
// attributes. Datasets are vectors of entities; input partitions are
// contiguous slices, mirroring file splits in HDFS.
#ifndef ERLB_ER_ENTITY_H_
#define ERLB_ER_ENTITY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace erlb {
namespace er {

/// Identifies the origin dataset in two-source (record linkage) workflows.
enum class Source : uint8_t { kR = 0, kS = 1 };

/// A single record to be resolved.
///
/// `fields[0]` is the primary matching attribute by convention (the title
/// in the paper's datasets); additional attributes may follow. `cluster_id`
/// carries generator ground truth (entities from the same real-world
/// object share a cluster id); it is ignored by the matching pipeline and
/// only used by evaluation.
struct Entity {
  uint64_t id = 0;
  std::vector<std::string> fields;
  /// Ground-truth duplicate cluster (generator-provided); 0 = unknown.
  uint64_t cluster_id = 0;
  Source source = Source::kR;

  const std::string& title() const { return fields.at(0); }
};

/// Entities are shuffled and replicated by the load balancers; passing
/// shared const pointers keeps replication O(1) per copy.
using EntityRef = std::shared_ptr<const Entity>;

/// Wraps `e` into a shared ref.
inline EntityRef MakeEntityRef(Entity e) {
  return std::make_shared<const Entity>(std::move(e));
}

/// A dataset split into `m` input partitions (map input splits).
using Partitions = std::vector<std::vector<EntityRef>>;

/// Splits `entities` into `m` near-equal contiguous partitions, like HDFS
/// splits of a file written in `entities` order. The final partitions may
/// be smaller; `m` must be >= 1. Order within and across partitions
/// follows `entities`.
Partitions SplitIntoPartitions(const std::vector<Entity>& entities,
                               uint32_t m);

/// Same, for pre-wrapped refs.
Partitions SplitRefsIntoPartitions(const std::vector<EntityRef>& entities,
                                   uint32_t m);

/// Flattens partitions back to one vector (partition order).
std::vector<EntityRef> FlattenPartitions(const Partitions& parts);

}  // namespace er
}  // namespace erlb

#endif  // ERLB_ER_ENTITY_H_
