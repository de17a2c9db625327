// Composite key and value types of the matching job (MR Job 2) for the
// three redistribution strategies.
#ifndef ERLB_LB_MATCH_KV_H_
#define ERLB_LB_MATCH_KV_H_

#include <cstdint>
#include <string>
#include <tuple>

#include "er/entity.h"

namespace erlb {
namespace lb {

/// Basic strategy: key = the blocking key itself (Section III).
struct BasicKey {
  std::string block_key;
  /// Two-source runs add the source so reduce input sorts R before S.
  er::Source source = er::Source::kR;
};

inline bool BasicKeyLess(const BasicKey& a, const BasicKey& b) {
  return std::tie(a.block_key, a.source) < std::tie(b.block_key, b.source);
}
inline bool BasicKeyGroupEqual(const BasicKey& a, const BasicKey& b) {
  return a.block_key == b.block_key;  // group by blocking key only
}

/// Stateless functor forms of comp/group/part (mr::TypedJobSpec): passing
/// these as template arguments lets the sort, merge and scatter loops
/// inline the per-pair calls.
struct BasicKeyLessFn {
  bool operator()(const BasicKey& a, const BasicKey& b) const {
    return BasicKeyLess(a, b);
  }
};
struct BasicKeyGroupEqualFn {
  bool operator()(const BasicKey& a, const BasicKey& b) const {
    return BasicKeyGroupEqual(a, b);
  }
};

/// BlockSplit: key = (reduce index ∘ block index ∘ split) with
/// split = (pi, pj) (Section IV; two-source adds the source, App. I-A).
/// Unsplit blocks use the sentinel pi = pj = 0 ("k.*").
struct BlockSplitKey {
  uint32_t reduce_task = 0;
  uint32_t block = 0;
  uint32_t pi = 0;  ///< max(partition, i) — first split component
  uint32_t pj = 0;  ///< min(partition, i) — second split component
  er::Source source = er::Source::kR;
};

/// part: routing is on the reduce task index only.
inline uint32_t BlockSplitPartition(const BlockSplitKey& k, uint32_t r) {
  return k.reduce_task % r;
}
/// comp: sort by blockIndex.i.j (and source, so R precedes S per task).
inline bool BlockSplitKeyLess(const BlockSplitKey& a,
                              const BlockSplitKey& b) {
  return std::tie(a.block, a.pi, a.pj, a.source) <
         std::tie(b.block, b.pi, b.pj, b.source);
}
/// group: one reduce call per match task k.i.j.
inline bool BlockSplitGroupEqual(const BlockSplitKey& a,
                                 const BlockSplitKey& b) {
  return std::tie(a.block, a.pi, a.pj) == std::tie(b.block, b.pi, b.pj);
}

/// Functor forms of comp/group/part (see BasicKeyLessFn).
struct BlockSplitPartitionFn {
  uint32_t operator()(const BlockSplitKey& k, uint32_t r) const {
    return BlockSplitPartition(k, r);
  }
};
struct BlockSplitKeyLessFn {
  bool operator()(const BlockSplitKey& a, const BlockSplitKey& b) const {
    return BlockSplitKeyLess(a, b);
  }
};
struct BlockSplitGroupEqualFn {
  bool operator()(const BlockSplitKey& a, const BlockSplitKey& b) const {
    return BlockSplitGroupEqual(a, b);
  }
};

/// PairRange: key = (range index ∘ block index ∘ entity index), with the
/// source between block and entity index in two-source runs (App. I-B).
struct PairRangeKey {
  uint32_t range = 0;
  uint32_t block = 0;
  er::Source source = er::Source::kR;
  uint64_t entity_index = 0;
};

/// part: routing on the range index only.
inline uint32_t PairRangePartition(const PairRangeKey& k, uint32_t r) {
  return k.range % r;
}
/// comp: sort by the entire key.
inline bool PairRangeKeyLess(const PairRangeKey& a, const PairRangeKey& b) {
  return std::tie(a.range, a.block, a.source, a.entity_index) <
         std::tie(b.range, b.block, b.source, b.entity_index);
}
/// group: by range and block index.
inline bool PairRangeGroupEqual(const PairRangeKey& a,
                                const PairRangeKey& b) {
  return std::tie(a.range, a.block) == std::tie(b.range, b.block);
}

/// Functor forms of comp/group/part (see BasicKeyLessFn).
struct PairRangePartitionFn {
  uint32_t operator()(const PairRangeKey& k, uint32_t r) const {
    return PairRangePartition(k, r);
  }
};
struct PairRangeKeyLessFn {
  bool operator()(const PairRangeKey& a, const PairRangeKey& b) const {
    return PairRangeKeyLess(a, b);
  }
};
struct PairRangeGroupEqualFn {
  bool operator()(const PairRangeKey& a, const PairRangeKey& b) const {
    return PairRangeGroupEqual(a, b);
  }
};

/// Value of all matching jobs: the entity plus the annotations map adds
/// for the reduce phase (partition index for BlockSplit, entity index for
/// PairRange; the source rides on the entity itself).
struct MatchValue {
  er::EntityRef entity;
  uint32_t partition = 0;
  uint64_t entity_index = 0;
};

}  // namespace lb
}  // namespace erlb

#endif  // ERLB_LB_MATCH_KV_H_
