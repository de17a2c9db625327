#include "lb/block_split.h"

#include <algorithm>
#include <memory>

#include "lb/match_kv.h"
#include "lb/reduce_helpers.h"
#include "lb/spill_codec.h"

namespace erlb {
namespace lb {

namespace {

/// Algorithm 1, map: one output per unsplit block entity; replication to
/// every relevant match task for entities of split blocks. With
/// sub_splits > 1, an entity's virtual partition is its physical
/// partition refined by its chunk (derived from its local arrival index
/// within the block, matching the chunk boundaries the plan computed from
/// the BDM).
class BlockSplitMapper
    : public mr::Mapper<std::string, er::EntityRef, BlockSplitKey,
                        MatchValue> {
 public:
  BlockSplitMapper(const bdm::Bdm* bdm, const BlockSplitPlan* plan,
                   uint32_t partition)
      : bdm_(bdm),
        plan_(plan),
        partition_(partition),
        sub_splits_(plan->sub_splits()),
        local_index_(bdm->num_blocks(), 0) {}

  void Map(const std::string& block_key, const er::EntityRef& entity,
           mr::MapContext<BlockSplitKey, MatchValue>* ctx) override {
    auto k_res = bdm_->BlockIndex(block_key);
    ERLB_CHECK(k_res.ok()) << "block key absent from BDM: " << block_key;
    const uint32_t k = *k_res;
    const uint64_t local = local_index_[k]++;

    if (!plan_->IsSplit(k)) {
      // Single match task k.* — skipped entirely for zero-comparison
      // blocks ("if comps > 0").
      auto rt = plan_->ReduceTaskFor(k, 0, 0);
      if (rt.has_value()) {
        ctx->Emit(BlockSplitKey{*rt, k, 0, 0, entity->source},
                  MatchValue{entity, partition_, 0});
      }
      return;
    }

    // Virtual partition of this entity: chunk c holds local indexes
    // [⌊n·c/S⌋, ⌊n·(c+1)/S⌋) of the n entities this partition holds.
    const uint64_t n = bdm_->Size(k, partition_);
    uint32_t chunk = 0;
    while (chunk + 1 < sub_splits_ &&
           local >= n * (chunk + 1) / sub_splits_) {
      ++chunk;
    }
    const uint32_t v = partition_ * sub_splits_ + chunk;
    const MatchValue value{entity, v, 0};
    const uint32_t mv = bdm_->num_partitions() * sub_splits_;

    if (!bdm_->two_source()) {
      // Replicate to the self task k.v and every cross task k.i×j that
      // involves this entity's virtual partition.
      for (uint32_t i = 0; i < mv; ++i) {
        uint32_t pi = std::max(v, i);
        uint32_t pj = std::min(v, i);
        auto rt = plan_->ReduceTaskFor(k, pi, pj);
        if (rt.has_value()) {
          ctx->Emit(BlockSplitKey{*rt, k, pi, pj, entity->source}, value);
        }
      }
    } else {
      // Two sources: cross tasks pair an R partition with an S partition.
      const bool is_r = entity->source == er::Source::kR;
      for (uint32_t i = 0; i < mv; ++i) {
        uint32_t pi = is_r ? v : i;
        uint32_t pj = is_r ? i : v;
        auto rt = plan_->ReduceTaskFor(k, pi, pj);
        if (rt.has_value()) {
          ctx->Emit(BlockSplitKey{*rt, k, pi, pj, entity->source}, value);
        }
      }
    }
  }

 private:
  const bdm::Bdm* bdm_;
  const BlockSplitPlan* plan_;
  uint32_t partition_;
  uint32_t sub_splits_;
  std::vector<uint64_t> local_index_;  // entities seen per block
};

/// Algorithm 1, reduce: self-join for k.* and k.i tasks; partition-aware
/// streaming cross product for k.i×j tasks (the first partition's entities
/// arrive contiguously and are buffered; every later entity is compared
/// against the buffer).
class BlockSplitReducer
    : public mr::Reducer<BlockSplitKey, MatchValue, MatchOutK, MatchOutV> {
 public:
  BlockSplitReducer(const er::Matcher* matcher, const BlockSplitPlan* plan,
                    bool two_source)
      : matcher_(matcher), plan_(plan), two_source_(two_source) {}

  void Reduce(std::span<const std::pair<BlockSplitKey, MatchValue>> group,
              MatchReduceContext* ctx) override {
    const BlockSplitKey& key = group.front().first;
    // Self-join (k.* and k.i tasks of one source): each entity meets every
    // earlier one, then is buffered. Otherwise the buffered side arrives
    // first and contiguously, and every later entity meets all of it: the
    // R entities of two sources, or the first-seen partition of a k.i×j
    // task (equal keys preserve map-task order in the shuffle).
    const bool self_join =
        !two_source_ && (!plan_->IsSplit(key.block) || key.pi == key.pj);
    const uint32_t first_partition = group.front().second.partition;
    buffer_.clear();
    for (const auto& [k, v] : group) {
      const SketchedEntity e2{v.entity.get(), matcher_->Sketch(*v.entity)};
      const bool buffered_side = two_source_
                                     ? v.entity->source == er::Source::kR
                                     : v.partition == first_partition;
      if (self_join || !buffered_side) {
        for (const auto& e1 : buffer_) {
          CompareAndEmit(*matcher_, e1, e2, ctx, &stats_);
        }
      }
      if (self_join || buffered_side) {
        buffer_.push_back(e2);
        stats_.NoteBuffer(buffer_.size());
      }
    }
  }

  void Close(MatchReduceContext* ctx) override {
    stats_.FlushTo(ctx->counters());
  }

 private:
  const er::Matcher* matcher_;
  const BlockSplitPlan* plan_;
  bool two_source_;
  std::vector<SketchedEntity> buffer_;
  CompareStats stats_;
};

}  // namespace

Result<MatchPlan> BlockSplitStrategy::BuildPlan(
    const bdm::Bdm& bdm, const MatchJobOptions& options) const {
  ERLB_RETURN_NOT_OK(ValidateMatchJobOptions(options));
  // The match-task plan is a pure function of (BDM, options); Algorithm 1
  // rebuilds it in every map task, we build it exactly once here and every
  // consumer — executor, simulator, recommender — shares it read-only.
  ERLB_ASSIGN_OR_RETURN(
      BlockSplitPlan plan,
      BlockSplitPlan::Build(bdm, options.num_reduce_tasks,
                            options.assignment, options.sub_splits));
  const uint32_t sub = options.sub_splits;
  PlanStats stats;
  stats.strategy = StrategyKind::kBlockSplit;
  stats.num_reduce_tasks = options.num_reduce_tasks;
  stats.comparisons_per_reduce_task = plan.comparisons_per_reduce_task();
  stats.total_comparisons = bdm.TotalPairs();
  stats.input_records_per_reduce_task.assign(options.num_reduce_tasks, 0);
  for (const auto& task : plan.tasks()) {
    uint64_t recs;
    if (!plan.IsSplit(task.block)) {
      recs = bdm.view(task.block).size();
    } else if (task.pi == task.pj) {
      recs = BlockSplitPlan::VirtualPartitionSize(bdm, task.block, task.pi,
                                                  sub);
    } else {
      recs = BlockSplitPlan::VirtualPartitionSize(bdm, task.block, task.pi,
                                                  sub) +
             BlockSplitPlan::VirtualPartitionSize(bdm, task.block, task.pj,
                                                  sub);
    }
    stats.input_records_per_reduce_task[task.reduce_task] += recs;
  }
  stats.map_output_pairs_per_task.assign(bdm.num_partitions(), 0);
  bdm.ForEachBlock([&](const bdm::Bdm::BlockView& block) {
    for (const bdm::BdmCell& cell : block.cells()) {
      for (uint32_t c = 0; c < sub; ++c) {
        uint32_t v = cell.partition * sub + c;
        uint64_t n = cell.count * (c + 1) / sub - cell.count * c / sub;
        if (n == 0) continue;
        stats.map_output_pairs_per_task[cell.partition] +=
            n * plan.EmissionsPerEntity(block.index(), v);
      }
    }
  });
  return MatchPlan(StrategyKind::kBlockSplit, options,
                   BdmFingerprint::Of(bdm), std::move(stats),
                   BlockSplitPlanBody{std::move(plan)});
}

Result<MatchJobOutput> BlockSplitStrategy::ExecutePlan(
    const MatchPlan& plan, const bdm::AnnotatedStore& input,
    const bdm::Bdm& bdm, const er::Matcher& matcher,
    const mr::JobRunner& runner) const {
  ERLB_RETURN_NOT_OK(plan.ValidateFor(StrategyKind::kBlockSplit, bdm));
  if (input.num_tasks() != bdm.num_partitions()) {
    return Status::InvalidArgument(
        "annotated store partition count disagrees with BDM");
  }
  const BlockSplitPlan* split_plan = &plan.block_split()->plan;

  mr::TypedJobSpec<std::string, er::EntityRef, BlockSplitKey, MatchValue,
                   MatchOutK, MatchOutV, BlockSplitKeyLessFn,
                   BlockSplitGroupEqualFn, BlockSplitPartitionFn>
      spec;
  spec.num_reduce_tasks = plan.num_reduce_tasks();
  spec.mapper_factory = [&bdm, split_plan](const mr::TaskContext& ctx) {
    return std::make_unique<BlockSplitMapper>(&bdm, split_plan,
                                              ctx.task_index);
  };
  const bool dual = bdm.two_source();
  spec.reducer_factory = [&matcher, split_plan,
                          dual](const mr::TaskContext&) {
    return std::make_unique<BlockSplitReducer>(&matcher, split_plan, dual);
  };

  return CollectMatchOutput(runner.Run(spec, input.files()));
}

}  // namespace lb
}  // namespace erlb
