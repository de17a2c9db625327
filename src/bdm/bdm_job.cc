#include "bdm/bdm_job.h"

#include <algorithm>
#include <functional>
#include <span>
#include <string_view>

#include "er/entity_spill.h"
#include "mr/merge.h"

namespace erlb {
namespace bdm {

namespace {

// Skipped / missing-key tallies live in the task counters (not shared
// atomics): counters are assigned per attempt, merged into the job
// counters, and persisted in task commit records — so retried and
// resumed tasks report exactly what an uninterrupted run reports.
constexpr char kCounterSkipped[] = "bdm.skipped_entities";
constexpr char kCounterMissingKey[] = "bdm.missing_key_entities";

// Algorithm 3's map: emit (blocking key, 1). The partition index of the
// paper's composite key is the map task's run index in the job output.
class BdmMapper : public mr::Mapper<uint32_t, er::EntityRef, std::string,
                                    uint64_t> {
 public:
  BdmMapper(const er::BlockingFunction* blocking, AnnotatedStore* side,
            uint32_t partition, MissingKeyPolicy missing_policy)
      : blocking_(blocking),
        side_(side),
        partition_(partition),
        missing_policy_(missing_policy) {}

  void Map(const uint32_t& /*key*/, const er::EntityRef& entity,
           mr::MapContext<std::string, uint64_t>* ctx) override {
    std::string key = blocking_->Key(*entity);
    if (key.empty()) {
      switch (missing_policy_) {
        case MissingKeyPolicy::kError:
          ctx->counters()->Increment(kCounterMissingKey, 1);
          return;
        case MissingKeyPolicy::kSkip:
          ctx->counters()->Increment(kCounterSkipped, 1);
          return;
        case MissingKeyPolicy::kBottom:
          key = er::kBottomKey;
          break;
      }
    }
    // additionalOutput: entity annotated with its blocking key, to DFS.
    side_->Append(partition_, key, entity);
    ctx->Emit(std::move(key), 1);
  }

 private:
  const er::BlockingFunction* blocking_;
  AnnotatedStore* side_;
  uint32_t partition_;
  MissingKeyPolicy missing_policy_;
};

/// The first 8 bytes of `key`, big-endian and zero-padded.
uint64_t KeyPrefix(std::string_view key) {
  uint64_t prefix = 0;
  const size_t n = std::min<size_t>(key.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    prefix |= static_cast<uint64_t>(static_cast<unsigned char>(key[i]))
              << (56 - 8 * i);
  }
  return prefix;
}

/// The next cell of one run of Job 1's output, with its key's prefix
/// and length: where two prefixes differ they order the keys, and where
/// they tie over keys of at most 8 bytes the shorter key is the smaller,
/// so the merge reads a key only for longer keys with equal prefixes.
struct CellHead {
  uint64_t prefix = 0;
  size_t key_size = 0;
  uint32_t run = 0;
  std::pair<std::string, uint64_t>* cell = nullptr;

  friend bool operator<(const CellHead& a, const CellHead& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    if (a.key_size <= 8 && b.key_size <= 8) return a.key_size < b.key_size;
    return a.cell->first < b.cell->first;
  }
};

/// A cursor over one run for mr::LoserTreeMergeCursors.
class CellCursor {
 public:
  using value_type = CellHead;

  CellCursor(uint32_t run,
             std::vector<std::pair<std::string, uint64_t>>* cells)
      : next_(cells->data()), end_(cells->data() + cells->size()) {
    head_.run = run;
    Load();
  }
  bool exhausted() const { return next_ == end_; }
  const CellHead& head() const { return head_; }
  CellHead Pop() {
    const CellHead popped = head_;
    ++next_;
    Load();
    return popped;
  }

 private:
  void Load() {
    if (exhausted()) return;
    head_.prefix = KeyPrefix(next_->first);
    head_.key_size = next_->first.size();
    head_.cell = next_;
  }

  std::pair<std::string, uint64_t>* next_;
  std::pair<std::string, uint64_t>* end_;
  CellHead head_;
};

}  // namespace

Result<Bdm> AssembleBdm(BdmRuns runs,
                        const std::vector<er::Source>& partition_sources) {
  const uint32_t m = static_cast<uint32_t>(runs.size());
  if (!partition_sources.empty() && partition_sources.size() != m) {
    return Status::InvalidArgument(
        "partition_sources size must equal the number of runs");
  }
  // One pass over the m runs; a block's cells tie on the key and come
  // out in run (= partition) order.
  std::vector<CellCursor> cursors;
  cursors.reserve(m);
  size_t cells = 0;
  for (uint32_t p = 0; p < m; ++p) {
    cursors.emplace_back(p, &runs[p]);
    cells += runs[p].size();
  }
  std::vector<BdmTriple> triples;
  triples.reserve(cells);
  mr::LoserTreeMergeCursors(
      std::span<CellCursor>(cursors), std::less<CellHead>(),
      [&](CellHead&& head) {
        triples.push_back(BdmTriple{
            std::move(head.cell->first),
            partition_sources.empty() ? er::Source::kR
                                      : partition_sources[head.run],
            head.run, head.cell->second});
      });
  BdmRuns().swap(runs);
  if (!partition_sources.empty()) {
    return Bdm::FromTriplesTwoSource(std::move(triples), partition_sources);
  }
  return Bdm::FromTriples(std::move(triples), m);
}

Result<BdmJobOutput> RunBdmJob(const er::Partitions& input,
                               const er::BlockingFunction& blocking,
                               const BdmJobOptions& options,
                               const mr::JobRunner& runner) {
  if (input.empty()) {
    return Status::InvalidArgument("input must have at least one partition");
  }
  const uint32_t m = static_cast<uint32_t>(input.size());
  if (!options.partition_sources.empty() &&
      options.partition_sources.size() != m) {
    return Status::InvalidArgument(
        "partition_sources size must equal number of input partitions");
  }

  auto side = std::make_shared<AnnotatedStore>(m);

  // Map-only: each task's combined run is its partition's BDM cells.
  mr::TypedJobSpec<uint32_t, er::EntityRef, std::string, uint64_t,
                   std::string, uint64_t, std::less<>, std::equal_to<>>
      spec;
  spec.num_reduce_tasks = 0;
  const MissingKeyPolicy missing_key_policy = options.missing_key_policy;
  spec.mapper_factory = [&blocking, side,
                         missing_key_policy](const mr::TaskContext& ctx) {
    // A fresh attempt starts from an empty side slot so retried tasks
    // stay self-contained (no duplicated annotations).
    side->mutable_files()[ctx.task_index].clear();
    return std::make_unique<BdmMapper>(&blocking, side.get(),
                                       ctx.task_index, missing_key_policy);
  };
  // The annotated partition is Algorithm 3's "additional output" to
  // DFS: durable alongside the spill file, so a resumed job restores it
  // instead of re-running the task.
  spec.encode_side_output = [side](uint32_t task_index) {
    std::string out;
    const auto& file = side->File(task_index);
    mr::SpillCodec<uint64_t>::Encode(file.size(), &out);
    for (const auto& [key, entity] : file) {
      mr::SpillCodec<std::string>::Encode(key, &out);
      mr::SpillCodec<er::EntityRef>::Encode(entity, &out);
    }
    return out;
  };
  spec.decode_side_output = [side](uint32_t task_index,
                                   std::string_view bytes) {
    const char* p = bytes.data();
    const char* end = p + bytes.size();
    uint64_t n = 0;
    if (!mr::SpillCodec<uint64_t>::Decode(&p, end, &n)) return false;
    // Each record takes at least one byte: bound n before reserving.
    if (n > static_cast<uint64_t>(end - p)) return false;
    auto& slot = side->mutable_files()[task_index];
    slot.clear();
    slot.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      std::string key;
      er::EntityRef entity;
      if (!mr::SpillCodec<std::string>::Decode(&p, end, &key) ||
          !mr::SpillCodec<er::EntityRef>::Decode(&p, end, &entity)) {
        return false;
      }
      slot.emplace_back(std::move(key), std::move(entity));
    }
    return p == end;
  };
  // Sums a block's counts map-side ("a combine function ... might be
  // employed as an optimization", Section III-B footnote); without it a
  // run would hold one cell per entity.
  spec.combiner = [](std::span<const std::pair<std::string, uint64_t>> group,
                     std::vector<std::pair<std::string, uint64_t>>* out) {
    uint64_t sum = 0;
    for (const auto& [k, v] : group) sum += v;
    out->emplace_back(group.front().first, sum);
  };

  // Build input with dummy keys (paper: k_in = unused).
  std::vector<std::vector<std::pair<uint32_t, er::EntityRef>>> job_input(m);
  for (uint32_t p = 0; p < m; ++p) {
    job_input[p].reserve(input[p].size());
    for (const auto& e : input[p]) job_input[p].emplace_back(0u, e);
  }

  auto job_result = runner.Run(spec, job_input);
  ERLB_RETURN_NOT_OK(job_result.status);
  if (job_result.metrics.counters.Get(kCounterMissingKey) > 0) {
    return Status::InvalidArgument(
        "entity without blocking key under MissingKeyPolicy::kError "
        "(blocking: " +
        blocking.Describe() + ")");
  }

  BdmJobOutput out;
  ERLB_ASSIGN_OR_RETURN(
      out.bdm, AssembleBdm(std::move(job_result.outputs_per_reduce_task),
                           options.partition_sources));
  out.annotated = std::move(side);
  out.metrics = std::move(job_result.metrics);
  out.skipped_entities = static_cast<uint64_t>(
      out.metrics.counters.Get(kCounterSkipped));
  return out;
}

}  // namespace bdm
}  // namespace erlb
