// Shared reduce-side matching helpers.
#ifndef ERLB_LB_REDUCE_HELPERS_H_
#define ERLB_LB_REDUCE_HELPERS_H_

#include <utility>
#include <vector>

#include "common/result.h"
#include "er/entity.h"
#include "er/match_result.h"
#include "er/matcher.h"
#include "lb/strategy.h"
#include "mr/counters.h"
#include "mr/job.h"

namespace erlb {
namespace lb {

/// Output record of every matching job: a matched id pair. The value is a
/// placeholder (Hadoop would write NullWritable).
using MatchOutK = er::MatchPair;
using MatchOutV = char;
using MatchReduceContext = mr::ReduceContext<MatchOutK, MatchOutV>;

/// Folds one executed matching job into a MatchJobOutput — shared by all
/// three strategies. Propagates the job's I/O status (external mode)
/// before consuming outputs.
[[nodiscard]] inline Result<MatchJobOutput> CollectMatchOutput(
    mr::JobResult<MatchOutK, MatchOutV>&& job_result) {
  ERLB_RETURN_NOT_OK(job_result.status);
  size_t total = 0;
  for (const auto& part : job_result.outputs_per_reduce_task) {
    total += part.size();
  }
  std::vector<er::MatchPair> pairs;
  pairs.reserve(total);
  for (const auto& part : job_result.outputs_per_reduce_task) {
    for (const auto& [pair, unused] : part) {
      pairs.emplace_back(pair.first, pair.second);
    }
  }
  MatchJobOutput out;
  out.matches = er::MatchResult(std::move(pairs));
  out.comparisons =
      job_result.metrics.counters.Get(mr::kCounterComparisons);
  out.metrics = std::move(job_result.metrics);
  return out;
}

/// Name of the reduce-side buffer high-water-mark counter: the largest
/// number of entities any reduce call had to hold in memory at once.
/// Reproduces the paper's memory argument — Basic buffers whole blocks
/// ("a reduce task must store all entities passed to a reduce call in
/// main memory"), the balanced strategies only sub-blocks.
inline constexpr char kCounterBufferPeak[] = "reduce.buffer_peak";

/// Plain per-task tallies, flushed into the named counters once per task
/// (named-counter map lookups per comparison would dominate the hot
/// loop and contend under parallel reduce tasks).
struct CompareStats {
  int64_t comparisons = 0;
  int64_t matches = 0;
  int64_t buffer_peak = 0;

  void NoteBuffer(size_t buffered) {
    buffer_peak = std::max(buffer_peak, static_cast<int64_t>(buffered));
  }

  void FlushTo(mr::Counters* counters) const {
    counters->Increment(mr::kCounterComparisons, comparisons);
    counters->Increment(mr::kCounterMatches, matches);
    // Read the peak from per-task metrics (job-level merging sums
    // counters, which is meaningless for a max; the per-task value is
    // exact).
    counters->Increment(kCounterBufferPeak, buffer_peak);
  }
};

/// An entity of a reduce group with its matcher sketch, computed once
/// per group and read by every pair the entity takes part in. `entity`
/// is kept alive by the group's EntityRef for the whole Reduce call;
/// reducers clear their buffers of these at the start of each call.
struct SketchedEntity {
  const er::Entity* entity = nullptr;
  er::FieldSketch sketch;
};

/// Evaluates one candidate pair: tallies the comparison, invokes the
/// matcher on the two sketched entities, and emits the pair on a match.
inline void CompareAndEmit(const er::Matcher& matcher,
                           const SketchedEntity& a, const SketchedEntity& b,
                           MatchReduceContext* ctx, CompareStats* stats) {
  ++stats->comparisons;
  if (matcher.MatchSketched(*a.entity, a.sketch, *b.entity, b.sketch)) {
    ++stats->matches;
    ctx->Emit(er::MatchPair(a.entity->id, b.entity->id), 1);
  }
}

}  // namespace lb
}  // namespace erlb

#endif  // ERLB_LB_REDUCE_HELPERS_H_
