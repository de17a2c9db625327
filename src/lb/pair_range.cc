#include "lb/pair_range.h"

#include <memory>

#include "lb/match_kv.h"
#include "lb/pair_enum.h"
#include "lb/reduce_helpers.h"
#include "lb/spill_codec.h"

namespace erlb {
namespace lb {

namespace {

/// Algorithm 2, map: tracks per-block entity indexes (seeded with "the
/// number of entities of Φk in all preceding partitions" — this partition's
/// column of the BDM only), computes each entity's relevant ranges, and
/// emits one annotated copy per range.
class PairRangeMapper
    : public mr::Mapper<std::string, er::EntityRef, PairRangeKey,
                        MatchValue> {
 public:
  PairRangeMapper(const bdm::Bdm* bdm, uint32_t partition,
                  uint32_t num_ranges)
      : bdm_(bdm),
        partition_(partition),
        num_ranges_(num_ranges),
        total_pairs_(bdm->TotalPairs()) {
    next_index_.resize(bdm->num_blocks());
    for (uint32_t k = 0; k < bdm->num_blocks(); ++k) {
      next_index_[k] = bdm->EntityIndexOffset(k, partition);
    }
  }

  void Map(const std::string& block_key, const er::EntityRef& entity,
           mr::MapContext<PairRangeKey, MatchValue>* ctx) override {
    auto k_res = bdm_->BlockIndex(block_key);
    ERLB_CHECK(k_res.ok()) << "block key absent from BDM: " << block_key;
    const uint32_t k = *k_res;
    const uint64_t x = next_index_[k]++;
    const bdm::Bdm::BlockView block = bdm_->view(k);
    const uint64_t off = block.pair_offset();

    ranges_.clear();
    if (!bdm_->two_source()) {
      RelevantRangesOneSource(x, block.size(), off, total_pairs_,
                              num_ranges_, &ranges_);
    } else {
      const uint64_t nr = block.size_r();
      const uint64_t ns = block.size_s();
      if (entity->source == er::Source::kR) {
        RelevantRangesDualR(x, nr, ns, off, total_pairs_, num_ranges_,
                            &ranges_);
      } else {
        RelevantRangesDualS(x, nr, ns, off, total_pairs_, num_ranges_,
                            &ranges_);
      }
    }
    for (uint32_t rho : ranges_) {
      ctx->Emit(PairRangeKey{rho, k, entity->source, x},
                MatchValue{entity, partition_, x});
    }
  }

 private:
  const bdm::Bdm* bdm_;
  uint32_t partition_;
  uint32_t num_ranges_;
  uint64_t total_pairs_;
  std::vector<uint64_t> next_index_;  // next entity index per block
  std::vector<uint32_t> ranges_;      // scratch
};

/// Algorithm 2, reduce: values arrive sorted by entity index (one source)
/// or by (source, index) (two sources). Streams through the group,
/// evaluating exactly the pairs whose index falls into this task's range;
/// pairs of later ranges terminate the scan early (indexes only grow).
class PairRangeReducer
    : public mr::Reducer<PairRangeKey, MatchValue, MatchOutK, MatchOutV> {
 public:
  PairRangeReducer(const er::Matcher* matcher, const bdm::Bdm* bdm,
                   uint32_t num_ranges)
      : matcher_(matcher),
        bdm_(bdm),
        num_ranges_(num_ranges),
        total_pairs_(bdm->TotalPairs()) {}

  void Reduce(std::span<const std::pair<PairRangeKey, MatchValue>> group,
              MatchReduceContext* ctx) override {
    const PairRangeKey& key = group.front().first;
    const uint32_t range = key.range;
    const uint32_t k = key.block;
    // `k` comes from a decoded shuffle key; view() only DCHECKs it.
    ERLB_CHECK(k < bdm_->num_blocks()) << "block index out of range: " << k;
    const bdm::Bdm::BlockView block = bdm_->view(k);
    const uint64_t off = block.pair_offset();
    // One source: entity x2 meets every earlier x1 < x2 at cell
    // (x1, x2), then is buffered. Two sources: R entities (sorted by
    // index) arrive first and are only buffered; S entity y meets them at
    // cell (x1, y). The mapper sends an entity only to ranges that hold
    // one of its pairs, so every group entity is compared and is sketched
    // once, on arrival.
    const bool self_join = !bdm_->two_source();
    const uint64_t n = block.size();
    const uint64_t ns = block.size_s();
    buffer_.clear();
    for (const auto& [kk, v] : group) {
      const Buffered e2{{v.entity.get(), matcher_->Sketch(*v.entity)},
                        v.entity_index};
      const bool is_r = v.entity->source == er::Source::kR;
      if (self_join || !is_r) {
        for (const Buffered& e1 : buffer_) {
          const uint64_t cell = self_join
                                    ? CellIndex(e1.index, e2.index, n)
                                    : CellIndexDual(e1.index, e2.index, ns);
          const uint32_t rho =
              RangeOfPair(off + cell, total_pairs_, num_ranges_);
          if (rho == range) {
            CompareAndEmit(*matcher_, e1.e, e2.e, ctx, &stats_);
          } else if (rho > range) {
            // For fixed x2 the pair index grows with x1, so the rest of
            // the buffer is past this range too. (Algorithm 2 writes
            // `return` here, but only the inner scan is monotone — a
            // whole-group return would drop in-range pairs of later
            // stream entities; see DESIGN.md.)
            break;
          }
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
  /// A group entity with its sketch and its entity index.
  struct Buffered {
    SketchedEntity e;
    uint64_t index = 0;
  };

  const er::Matcher* matcher_;
  const bdm::Bdm* bdm_;
  uint32_t num_ranges_;
  uint64_t total_pairs_;
  std::vector<Buffered> buffer_;
  CompareStats stats_;
};

}  // namespace

Result<MatchJobOutput> PairRangeStrategy::ExecutePlan(
    const MatchPlan& plan, const bdm::AnnotatedStore& input,
    const bdm::Bdm& bdm, const er::Matcher& matcher,
    const mr::JobRunner& runner) const {
  ERLB_RETURN_NOT_OK(plan.ValidateFor(StrategyKind::kPairRange, bdm));
  if (input.num_tasks() != bdm.num_partitions()) {
    return Status::InvalidArgument(
        "annotated store partition count disagrees with BDM");
  }
  // The plan's decision is the tiling of the pair index space into r
  // ranges. The mappers and reducers evaluate that tiling analytically
  // (RangeOfPair / RelevantRanges* over ⌈P/r⌉), so the plan body must be
  // exactly the tiling execution will use — a tampered or mismatched
  // boundary vector must fail here, not silently diverge from the record.
  const uint32_t r = plan.num_reduce_tasks();
  const uint64_t total_pairs = bdm.TotalPairs();
  const std::vector<uint64_t>& boundaries = plan.pair_range()->range_begin;
  if (boundaries.size() != static_cast<size_t>(r) + 1) {
    return Status::InvalidArgument(
        "pair-range plan must carry r + 1 range boundaries");
  }
  for (uint32_t t = 0; t <= r; ++t) {
    if (boundaries[t] != RangeBegin(t, total_pairs, r)) {
      return Status::InvalidArgument(
          "pair-range plan boundaries disagree with the ⌈P/r⌉ tiling "
          "execution evaluates");
    }
  }
  mr::TypedJobSpec<std::string, er::EntityRef, PairRangeKey, MatchValue,
                   MatchOutK, MatchOutV, PairRangeKeyLessFn,
                   PairRangeGroupEqualFn, PairRangePartitionFn>
      spec;
  spec.num_reduce_tasks = r;
  spec.mapper_factory = [&bdm, r](const mr::TaskContext& ctx) {
    return std::make_unique<PairRangeMapper>(&bdm, ctx.task_index, r);
  };
  spec.reducer_factory = [&matcher, &bdm, r](const mr::TaskContext&) {
    return std::make_unique<PairRangeReducer>(&matcher, &bdm, r);
  };

  return CollectMatchOutput(runner.Run(spec, input.files()));
}

Result<MatchPlan> PairRangeStrategy::BuildPlan(
    const bdm::Bdm& bdm, const MatchJobOptions& options) const {
  ERLB_RETURN_NOT_OK(ValidateMatchJobOptions(options));
  const uint32_t r = options.num_reduce_tasks;
  const uint64_t total = bdm.TotalPairs();

  PairRangePlanBody body;
  body.range_begin.resize(r + 1);
  for (uint32_t t = 0; t <= r; ++t) {
    body.range_begin[t] = RangeBegin(t, total, r);
  }

  PlanStats stats;
  stats.strategy = StrategyKind::kPairRange;
  stats.num_reduce_tasks = r;
  stats.total_comparisons = total;
  stats.comparisons_per_reduce_task.resize(r);
  for (uint32_t t = 0; t < r; ++t) {
    stats.comparisons_per_reduce_task[t] = RangeSize(t, total, r);
  }

  // Exact per-map-task emission counts: walk every nonzero (block,
  // partition) cell and accumulate |relevant ranges| over its entity
  // index interval. Each emission is also one shuffle record into its
  // range's reduce task. The per-cell entity index offsets are running
  // per-source sums within the row (cells arrive in ascending partition
  // order), so no b×m offset matrix is materialized.
  stats.map_output_pairs_per_task.assign(bdm.num_partitions(), 0);
  stats.input_records_per_reduce_task.assign(r, 0);
  const bool dual = bdm.two_source();
  std::vector<uint32_t> scratch;
  bdm.ForEachBlock([&](const bdm::Bdm::BlockView& block) {
    const uint64_t off = block.pair_offset();
    const uint64_t n = block.size();
    const uint64_t nr = dual ? block.size_r() : 0;
    const uint64_t ns = dual ? block.size_s() : 0;
    uint64_t run_r = 0, run_s = 0;
    for (const bdm::BdmCell& cell : block.cells()) {
      const bool is_s =
          dual && bdm.PartitionSource(cell.partition) == er::Source::kS;
      const uint64_t first = is_s ? run_s : run_r;
      (is_s ? run_s : run_r) += cell.count;
      for (uint64_t x = first; x < first + cell.count; ++x) {
        scratch.clear();
        if (!dual) {
          RelevantRangesOneSource(x, n, off, total, r, &scratch);
        } else if (!is_s) {
          RelevantRangesDualR(x, nr, ns, off, total, r, &scratch);
        } else {
          RelevantRangesDualS(x, nr, ns, off, total, r, &scratch);
        }
        stats.map_output_pairs_per_task[cell.partition] += scratch.size();
        for (uint32_t rho : scratch) {
          stats.input_records_per_reduce_task[rho] += 1;
        }
      }
    }
  });
  return MatchPlan(StrategyKind::kPairRange, options,
                   BdmFingerprint::Of(bdm), std::move(stats),
                   std::move(body));
}

}  // namespace lb
}  // namespace erlb
