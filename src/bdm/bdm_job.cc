#include "bdm/bdm_job.h"

#include <algorithm>
#include <string_view>
#include <tuple>

#include "common/string_util.h"
#include "er/entity_spill.h"
#include "mr/presplit.h"

namespace erlb {
namespace bdm {

namespace {

/// Composite map output key of Algorithm 3: (blocking key ∘ partition
/// index), with the source tag added in two-source runs (Appendix I).
struct BdmKey {
  std::string block_key;
  er::Source source = er::Source::kR;
  uint32_t partition = 0;
};

/// comp: by the entire composite key.
struct BdmKeyLessFn {
  bool operator()(const BdmKey& a, const BdmKey& b) const {
    return std::tie(a.block_key, a.source, a.partition) <
           std::tie(b.block_key, b.source, b.partition);
  }
};

/// group: by the entire composite key.
struct BdmKeyEqualFn {
  bool operator()(const BdmKey& a, const BdmKey& b) const {
    return std::tie(a.block_key, a.source, a.partition) ==
           std::tie(b.block_key, b.source, b.partition);
  }
};

/// part: repartition by blocking key only, so every (block, partition)
/// cell of one block lands in one reduce task.
struct BdmPartitionFn {
  uint32_t operator()(const BdmKey& k, uint32_t r) const {
    return static_cast<uint32_t>(Fnv1a64(k.block_key) % r);
  }
};

/// The first 8 bytes of `key`, big-endian and zero-padded: where two
/// keys' prefixes differ, they order the keys as the keys themselves do.
uint64_t KeyPrefix(std::string_view key) {
  uint64_t prefix = 0;
  const size_t n = std::min<size_t>(key.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    prefix |= static_cast<uint64_t>(static_cast<unsigned char>(key[i]))
              << (56 - 8 * i);
  }
  return prefix;
}

// Skipped / missing-key tallies live in the task counters (not shared
// atomics): counters are assigned per attempt, merged into the job
// counters, and persisted in task commit records — so retried and
// resumed tasks report exactly what an uninterrupted run reports.
constexpr char kCounterSkipped[] = "bdm.skipped_entities";
constexpr char kCounterMissingKey[] = "bdm.missing_key_entities";

class BdmMapper : public mr::Mapper<uint32_t, er::EntityRef, BdmKey,
                                    uint64_t> {
 public:
  BdmMapper(const er::BlockingFunction* blocking, AnnotatedStore* side,
            uint32_t partition, er::Source source,
            MissingKeyPolicy missing_policy)
      : blocking_(blocking),
        side_(side),
        partition_(partition),
        source_(source),
        missing_policy_(missing_policy) {}

  void Map(const uint32_t& /*key*/, const er::EntityRef& entity,
           mr::MapContext<BdmKey, uint64_t>* ctx) override {
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
    ctx->Emit(BdmKey{key, source_, partition_}, 1);
  }

 private:
  const er::BlockingFunction* blocking_;
  AnnotatedStore* side_;
  uint32_t partition_;
  er::Source source_;
  MissingKeyPolicy missing_policy_;
};

class BdmReducer
    : public mr::Reducer<BdmKey, uint64_t, uint32_t, BdmTriple> {
 public:
  void Reduce(std::span<const std::pair<BdmKey, uint64_t>> group,
              mr::ReduceContext<uint32_t, BdmTriple>* ctx) override {
    uint64_t sum = 0;
    for (const auto& [k, v] : group) sum += v;
    const BdmKey& key = group.front().first;
    BdmTriple t;
    t.block_key = key.block_key;
    t.source = key.source;
    t.partition = key.partition;
    t.count = sum;
    ctx->Emit(0, std::move(t));
  }
};

}  // namespace
}  // namespace bdm

/// Spill codec for the BDM job's composite map output key, so Job 1 can
/// run out-of-core alongside the matching job.
namespace mr {
template <>
struct SpillCodec<bdm::BdmKey> {
  static void Encode(const bdm::BdmKey& k, std::string* out) {
    SpillCodec<std::string>::Encode(k.block_key, out);
    SpillCodec<er::Source>::Encode(k.source, out);
    SpillCodec<uint32_t>::Encode(k.partition, out);
  }
  static bool Decode(const char** p, const char* end, bdm::BdmKey* k) {
    return SpillCodec<std::string>::Decode(p, end, &k->block_key) &&
           SpillCodec<er::Source>::Decode(p, end, &k->source) &&
           SpillCodec<uint32_t>::Decode(p, end, &k->partition);
  }
  static size_t ApproxBytes(const bdm::BdmKey& k) {
    return SpillCodec<std::string>::ApproxBytes(k.block_key) +
           sizeof(er::Source) + sizeof(uint32_t);
  }
};

/// Output-value codec: BdmTriples are the BDM job's reduce output, which
/// multi-process mode ships back through out-<t>.run spill files.
template <>
struct SpillCodec<bdm::BdmTriple> {
  static void Encode(const bdm::BdmTriple& t, std::string* out) {
    SpillCodec<std::string>::Encode(t.block_key, out);
    SpillCodec<er::Source>::Encode(t.source, out);
    SpillCodec<uint32_t>::Encode(t.partition, out);
    SpillCodec<uint64_t>::Encode(t.count, out);
  }
  static bool Decode(const char** p, const char* end, bdm::BdmTriple* t) {
    return SpillCodec<std::string>::Decode(p, end, &t->block_key) &&
           SpillCodec<er::Source>::Decode(p, end, &t->source) &&
           SpillCodec<uint32_t>::Decode(p, end, &t->partition) &&
           SpillCodec<uint64_t>::Decode(p, end, &t->count);
  }
  static size_t ApproxBytes(const bdm::BdmTriple& t) {
    return SpillCodec<std::string>::ApproxBytes(t.block_key) +
           sizeof(er::Source) + sizeof(uint32_t) + sizeof(uint64_t);
  }
};
}  // namespace mr

namespace bdm {

Result<Bdm> AssembleBdm(BdmReduceOutput outputs, uint32_t num_partitions,
                        const std::vector<er::Source>& partition_sources) {
  // Each reduce task's output is sorted by key, and the partitioner keys
  // on the block key alone, so a block's cells are one contiguous group
  // of one task's output. Merging the tasks' groups by key — a heap of r
  // task cursors, each reading its task's output front to back — puts
  // the ≈b groups in block order without comparing the ≈cells.
  size_t cells = 0;
  for (const auto& part : outputs) cells += part.size();
  std::vector<BdmTriple> triples;
  triples.reserve(cells);
  struct Cursor {
    uint64_t prefix;  // KeyPrefix of the next group's key
    uint32_t task;
    size_t next;
  };
  const auto later = [&outputs](const Cursor& a, const Cursor& b) {
    if (a.prefix != b.prefix) return a.prefix > b.prefix;
    return outputs[a.task][a.next].second.block_key >
           outputs[b.task][b.next].second.block_key;
  };
  std::vector<Cursor> heap;
  for (uint32_t t = 0; t < outputs.size(); ++t) {
    if (outputs[t].empty()) continue;
    heap.push_back(Cursor{KeyPrefix(outputs[t][0].second.block_key), t, 0});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor& cursor = heap.back();
    auto& part = outputs[cursor.task];
    size_t end = cursor.next + 1;
    while (end < part.size() && part[end].second.block_key ==
                                    part[cursor.next].second.block_key) {
      ++end;
    }
    for (size_t i = cursor.next; i < end; ++i) {
      triples.push_back(std::move(part[i].second));
    }
    if (end == part.size()) {
      heap.pop_back();
      continue;
    }
    cursor.next = end;
    cursor.prefix = KeyPrefix(part[end].second.block_key);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  if (!partition_sources.empty()) {
    return Bdm::FromTriplesTwoSource(std::move(triples), partition_sources);
  }
  return Bdm::FromTriples(std::move(triples), num_partitions);
}

Result<BdmJobOutput> RunBdmJob(const er::Partitions& input,
                               const er::BlockingFunction& blocking,
                               const BdmJobOptions& options,
                               const mr::JobRunner& runner) {
  if (input.empty()) {
    return Status::InvalidArgument("input must have at least one partition");
  }
  const uint32_t m = static_cast<uint32_t>(input.size());
  const bool two_source = !options.partition_sources.empty();
  if (two_source && options.partition_sources.size() != m) {
    return Status::InvalidArgument(
        "partition_sources size must equal number of input partitions");
  }

  auto side = std::make_shared<AnnotatedStore>(m);

  uint32_t num_reduce_tasks = options.num_reduce_tasks;
  if (num_reduce_tasks == 0) {
    // Auto: Metis-style sampling presplit — key a strided sample of the
    // input and size r from the estimated distinct-block count. Safe
    // here because the BDM result is independent of r.
    const mr::PresplitSample sample = mr::SamplePartitionKeys(
        input,
        [&blocking](const er::EntityRef& e) { return blocking.Key(*e); });
    num_reduce_tasks = mr::PickReduceTasks(sample, runner.num_workers());
  }

  mr::TypedJobSpec<uint32_t, er::EntityRef, BdmKey, uint64_t, uint32_t,
                   BdmTriple, BdmKeyLessFn, BdmKeyEqualFn, BdmPartitionFn>
      spec;
  spec.num_reduce_tasks = num_reduce_tasks;
  const auto& opts = options;
  spec.mapper_factory = [&blocking, side, &opts,
                         two_source](const mr::TaskContext& ctx) {
    // A fresh attempt starts from an empty side slot so retried tasks
    // stay self-contained (no duplicated annotations).
    side->mutable_files()[ctx.task_index].clear();
    er::Source src = two_source ? opts.partition_sources[ctx.task_index]
                                : er::Source::kR;
    return std::make_unique<BdmMapper>(&blocking, side.get(),
                                       ctx.task_index, src,
                                       opts.missing_key_policy);
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
  spec.reducer_factory = [](const mr::TaskContext&) {
    return std::make_unique<BdmReducer>();
  };
  if (options.use_combiner) {
    spec.combiner = [](std::span<const std::pair<BdmKey, uint64_t>> group,
                       std::vector<std::pair<BdmKey, uint64_t>>* out) {
      uint64_t sum = 0;
      for (const auto& [k, v] : group) sum += v;
      out->emplace_back(group.front().first, sum);
    };
  }

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
      out.bdm, AssembleBdm(std::move(job_result.outputs_per_reduce_task), m,
                           options.partition_sources));
  out.annotated = std::move(side);
  out.metrics = std::move(job_result.metrics);
  out.skipped_entities = static_cast<uint64_t>(
      out.metrics.counters.Get(kCounterSkipped));
  return out;
}

}  // namespace bdm
}  // namespace erlb
