#include "lb/basic.h"

#include <memory>

#include "common/string_util.h"
#include "lb/match_kv.h"
#include "lb/reduce_helpers.h"
#include "lb/spill_codec.h"

namespace erlb {
namespace lb {

namespace {

/// Map over the annotated store: keys are precomputed.
class BasicAnnotatedMapper
    : public mr::Mapper<std::string, er::EntityRef, BasicKey, MatchValue> {
 public:
  void Map(const std::string& block_key, const er::EntityRef& entity,
           mr::MapContext<BasicKey, MatchValue>* ctx) override {
    ctx->Emit(BasicKey{block_key, entity->source},
              MatchValue{entity, 0, 0});
  }
};

/// Map over raw entities: computes the blocking key (single-job Basic).
class BasicRawMapper
    : public mr::Mapper<uint32_t, er::EntityRef, BasicKey, MatchValue> {
 public:
  explicit BasicRawMapper(const er::BlockingFunction* blocking)
      : blocking_(blocking) {}

  void Map(const uint32_t& /*key*/, const er::EntityRef& entity,
           mr::MapContext<BasicKey, MatchValue>* ctx) override {
    ctx->Emit(BasicKey{blocking_->Key(*entity), entity->source},
              MatchValue{entity, 0, 0});
  }

 private:
  const er::BlockingFunction* blocking_;
};

/// Reduce: full self-join of the block (one source) or R×S cross product
/// (two sources; R entities sort first). The entire buffer side of a block
/// must be held in memory — exactly the memory problem Section III
/// describes for large blocks.
class BasicReducer
    : public mr::Reducer<BasicKey, MatchValue, MatchOutK, MatchOutV> {
 public:
  BasicReducer(const er::Matcher* matcher, bool two_source)
      : matcher_(matcher), two_source_(two_source) {}

  void Reduce(std::span<const std::pair<BasicKey, MatchValue>> group,
              MatchReduceContext* ctx) override {
    // One source: each entity meets every earlier one, then is buffered.
    // Two sources: R entities arrive first (key sorts by source after
    // block key) and are only buffered; each S entity meets all of them.
    const bool self_join = !two_source_;
    buffer_.clear();
    for (const auto& [k, v] : group) {
      const SketchedEntity e2{v.entity.get(), matcher_->Sketch(*v.entity)};
      const bool is_r = v.entity->source == er::Source::kR;
      if (self_join || !is_r) {
        for (const auto& e1 : buffer_) {
          CompareAndEmit(*matcher_, e1, e2, ctx, &stats_);
        }
      }
      if (self_join || is_r) {
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
  bool two_source_;
  std::vector<SketchedEntity> buffer_;
  CompareStats stats_;
};

/// Hash routing, for the single-job path that has no BDM (and therefore no
/// plan): the block's reduce task is the key hash mod r.
struct BasicPartitionFn {
  uint32_t operator()(const BasicKey& k, uint32_t r) const {
    return static_cast<uint32_t>(Fnv1a64(k.block_key) % r);
  }
};

/// Plan routing: looks the block up in the BDM and routes to the reduce
/// task the plan recorded for it — execution consumes the plan's decision
/// instead of re-hashing.
struct BasicPlannedPartitionFn {
  const bdm::Bdm* bdm = nullptr;
  const BasicPlanBody* body = nullptr;

  uint32_t operator()(const BasicKey& k, uint32_t r) const {
    auto idx = bdm->BlockIndex(k.block_key);
    ERLB_CHECK(idx.ok()) << "block key absent from BDM: " << k.block_key;
    uint32_t task = body->reduce_task_of_block[*idx];
    ERLB_CHECK(task < r);
    return task;
  }
};

/// The match job's spec (comp/group/part inlined by the engine).
template <typename InK, typename PartFn>
using BasicSpec =
    mr::TypedJobSpec<InK, er::EntityRef, BasicKey, MatchValue, MatchOutK,
                     MatchOutV, BasicKeyLessFn, BasicKeyGroupEqualFn,
                     PartFn>;

template <typename InK, typename PartFn>
BasicSpec<InK, PartFn> MakeBasicSpecCommon(const er::Matcher& matcher,
                                           uint32_t r, bool two_source,
                                           PartFn partitioner) {
  BasicSpec<InK, PartFn> spec;
  spec.num_reduce_tasks = r;
  spec.partitioner = partitioner;
  spec.reducer_factory = [&matcher, two_source](const mr::TaskContext&) {
    return std::make_unique<BasicReducer>(&matcher, two_source);
  };
  return spec;
}

}  // namespace

Result<MatchPlan> BasicStrategy::BuildPlan(
    const bdm::Bdm& bdm, const MatchJobOptions& options) const {
  ERLB_RETURN_NOT_OK(ValidateMatchJobOptions(options));
  const uint32_t r = options.num_reduce_tasks;
  PlanStats stats;
  stats.strategy = StrategyKind::kBasic;
  stats.num_reduce_tasks = r;
  stats.comparisons_per_reduce_task.assign(r, 0);
  stats.map_output_pairs_per_task.assign(bdm.num_partitions(), 0);
  stats.input_records_per_reduce_task.assign(r, 0);
  BasicPlanBody body;
  body.reduce_task_of_block.resize(bdm.num_blocks());
  bdm.ForEachBlock([&](const bdm::Bdm::BlockView& block) {
    uint32_t t = static_cast<uint32_t>(Fnv1a64(block.key()) % r);
    body.reduce_task_of_block[block.index()] = t;
    stats.comparisons_per_reduce_task[t] += block.pairs();
    stats.total_comparisons += block.pairs();
    stats.input_records_per_reduce_task[t] += block.size();
    // Basic replicates nothing: one KV pair per entity.
    for (const bdm::BdmCell& cell : block.cells()) {
      stats.map_output_pairs_per_task[cell.partition] += cell.count;
    }
  });
  return MatchPlan(StrategyKind::kBasic, options, BdmFingerprint::Of(bdm),
                   std::move(stats), std::move(body));
}

Result<MatchJobOutput> BasicStrategy::ExecutePlan(
    const MatchPlan& plan, const bdm::AnnotatedStore& input,
    const bdm::Bdm& bdm, const er::Matcher& matcher,
    const mr::JobRunner& runner) const {
  ERLB_RETURN_NOT_OK(plan.ValidateFor(StrategyKind::kBasic, bdm));
  if (input.num_tasks() != bdm.num_partitions()) {
    return Status::InvalidArgument(
        "annotated store partition count disagrees with BDM");
  }
  auto spec = MakeBasicSpecCommon<std::string>(
      matcher, plan.num_reduce_tasks(), bdm.two_source(),
      BasicPlannedPartitionFn{&bdm, plan.basic()});
  spec.mapper_factory = [](const mr::TaskContext&) {
    return std::make_unique<BasicAnnotatedMapper>();
  };
  return CollectMatchOutput(runner.Run(spec, input.files()));
}

Result<MatchJobOutput> RunBasicSingleJob(
    const er::Partitions& input, const er::BlockingFunction& blocking,
    const er::Matcher& matcher, const MatchJobOptions& options,
    const mr::JobRunner& runner,
    const std::vector<er::Source>* partition_sources) {
  ERLB_RETURN_NOT_OK(ValidateMatchJobOptions(options));
  if (input.empty()) {
    return Status::InvalidArgument("input must have >= 1 partition");
  }
  bool two_source = partition_sources != nullptr;
  auto spec = MakeBasicSpecCommon<uint32_t>(
      matcher, options.num_reduce_tasks, two_source, BasicPartitionFn{});
  spec.mapper_factory = [&blocking](const mr::TaskContext&) {
    return std::make_unique<BasicRawMapper>(&blocking);
  };
  std::vector<std::vector<std::pair<uint32_t, er::EntityRef>>> job_input(
      input.size());
  for (size_t p = 0; p < input.size(); ++p) {
    job_input[p].reserve(input[p].size());
    for (const auto& e : input[p]) job_input[p].emplace_back(0u, e);
  }
  return CollectMatchOutput(runner.Run(spec, job_input));
}

}  // namespace lb
}  // namespace erlb
