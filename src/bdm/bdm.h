// Block Distribution Matrix (BDM): the paper's Section III-B data
// structure. A b×m matrix holding the number of entities of each block in
// each of the m input partitions; both load balancing strategies plan from
// it. Supports the one-source (deduplication) and two-source (record
// linkage, Appendix I) cases.
//
// Representation: the matrix is sparse (most blocks occur in few
// partitions), so it is stored compressed — a sorted block-key dictionary
// plus CSR count arrays (`cell_offsets_` rows over the `cells_` nonzero
// (partition, count) array). Planning code reads it through the
// traversal-first BlockView/ForEachBlock API below, which walks the CSR
// arrays in one cache-friendly pass. The only per-element getters are the
// (block, partition) point queries no BlockView method answers.
#ifndef ERLB_BDM_BDM_H_
#define ERLB_BDM_BDM_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "er/entity.h"

namespace erlb {
namespace bdm {

/// One BDM cell as the paper's Job 1 writes it: "(blocking key, partition
/// index, number of entities)" (two-source runs also carry the source
/// tag).
struct BdmTriple {
  std::string block_key;
  er::Source source = er::Source::kR;
  uint32_t partition = 0;
  uint64_t count = 0;

  friend bool operator==(const BdmTriple&, const BdmTriple&) = default;
};

/// One nonzero BDM cell: `count` entities of some block in `partition`.
struct BdmCell {
  uint32_t partition = 0;
  uint64_t count = 0;

  friend bool operator==(const BdmCell&, const BdmCell&) = default;
};

/// One incremental BDM mutation (Bdm::ApplyDelta): `delta` entities of
/// block `block_key` added to (positive) or removed from (negative) input
/// partition `partition`. A long-lived corpus applies record inserts and
/// deletes as batches of these instead of recomputing the matrix.
struct BdmDeltaEntry {
  std::string block_key;
  uint32_t partition = 0;
  int64_t delta = 0;

  friend bool operator==(const BdmDeltaEntry&, const BdmDeltaEntry&) =
      default;
};

/// The block distribution matrix.
///
/// Blocks are indexed 0..b-1 in lexicographic blocking-key order — the
/// order the paper derives from the (sorted) reduce output of Job 1.
/// In two-source mode every input partition belongs to exactly one source
/// (the paper's MultipleInputs assumption) and per-block sizes are kept per
/// source; the pair count of a block is then |Φk,R|·|Φk,S| instead of
/// C(|Φk|, 2).
class Bdm {
 public:
  /// A read-only view of one BDM row — everything the planners need for
  /// block k without touching any other row. `cells()` are the nonzero
  /// (partition, count) entries in ascending partition order; sizes and
  /// pair counts are the precomputed per-block aggregates. Views are cheap
  /// value types borrowing from the Bdm; they must not outlive it.
  class BlockView {
   public:
    uint32_t index() const { return index_; }
    /// The blocking key.
    std::string_view key() const { return bdm_->block_keys_[index_]; }
    /// Nonzero cells of the row, ascending by partition.
    std::span<const BdmCell> cells() const {
      return std::span<const BdmCell>(
          bdm_->cells_.data() + bdm_->cell_offsets_[index_],
          bdm_->cell_offsets_[index_ + 1] - bdm_->cell_offsets_[index_]);
    }
    /// |Φk|: total entities (both sources in two-source mode).
    uint64_t size() const { return bdm_->block_sizes_[index_]; }
    /// |Φk,R| (= size() in one-source mode).
    uint64_t size_r() const { return bdm_->block_sizes_r_[index_]; }
    /// |Φk,S| (0 in one-source mode).
    uint64_t size_s() const { return bdm_->block_sizes_s_[index_]; }
    /// Comparisons of the block: C(|Φk|,2) or |Φk,R|·|Φk,S|.
    uint64_t pairs() const {
      return bdm_->pair_offsets_[index_ + 1] - bdm_->pair_offsets_[index_];
    }
    /// o(k): total pairs in blocks 0..k-1.
    uint64_t pair_offset() const { return bdm_->pair_offsets_[index_]; }

   private:
    friend class Bdm;
    BlockView(const Bdm* bdm, uint32_t index) : bdm_(bdm), index_(index) {}

    const Bdm* bdm_;
    uint32_t index_;
  };

  /// Constructs an empty BDM (0 blocks, 0 partitions); assign a factory
  /// result before use.
  Bdm() = default;

  /// Builds a one-source BDM from Job 1's output triples, taking their
  /// keys (pass an rvalue to avoid copying them).
  /// \param triples        cells, in any order; each (block key,
  ///                       partition) pair may occur at most once, else
  ///                       AlreadyExists
  /// \param num_partitions m, the number of input partitions
  ///
  /// Triples already sorted by (block key, partition) — what RunBdmJob
  /// delivers — are checked in one pass and taken as they are; any other
  /// order is sorted first.
  [[nodiscard]] static Result<Bdm> FromTriples(
      std::vector<BdmTriple> triples, uint32_t num_partitions);

  /// Builds a two-source BDM. `partition_sources[i]` tags input partition
  /// i with its source; triples must agree with the tags.
  [[nodiscard]] static Result<Bdm> FromTriplesTwoSource(
      std::vector<BdmTriple> triples,
      const std::vector<er::Source>& partition_sources);

  /// Convenience: computes a BDM directly from partitions + blocking keys
  /// without running the MR job (used by tests and the planner fast path).
  /// `keys[p][i]` is the blocking key of the i-th entity of partition p.
  [[nodiscard]] static Result<Bdm> FromKeys(
      const std::vector<std::vector<std::string>>& keys_per_partition,
      const std::vector<er::Source>* partition_sources = nullptr);

  /// Applies a batch of incremental count mutations in place — the
  /// maintenance primitive of a resident corpus (record inserts/deletes
  /// arrive as deltas instead of triggering a from-scratch rebuild).
  /// Entries may repeat per (block, partition); they are aggregated
  /// first. Only touched CSR rows are re-merged and only touched
  /// dictionary entries move (new blocks are inserted in sorted key
  /// order, rows whose last cell disappears are removed); untouched row
  /// data is relocated without recomputation. Validation happens before
  /// any mutation: a delta driving some cell below zero, or naming a
  /// partition >= m, is InvalidArgument and leaves the BDM unchanged.
  /// The result is indistinguishable from a FromTriples rebuild over the
  /// mutated input (differential-tested), including the memoized content
  /// hash.
  [[nodiscard]] Status ApplyDelta(const std::vector<BdmDeltaEntry>& entries);

  bool two_source() const { return !partition_sources_.empty(); }
  uint32_t num_blocks() const {
    return static_cast<uint32_t>(block_keys_.size());
  }
  uint32_t num_partitions() const { return num_partitions_; }

  /// View of block `k`; the planners' one-stop read surface.
  BlockView view(uint32_t k) const {
    ERLB_DCHECK(k < num_blocks());
    return BlockView(this, k);
  }

  /// Calls `fn(BlockView)` for blocks 0..b-1 in index (= sorted key)
  /// order — one sequential pass over the CSR arrays.
  template <typename Fn>
  void ForEachBlock(Fn&& fn) const {
    for (uint32_t k = 0; k < num_blocks(); ++k) fn(BlockView(this, k));
  }

  /// Index of `key`, or NotFound. O(log b) over the sorted dictionary.
  [[nodiscard]] Result<uint32_t> BlockIndex(std::string_view key) const;

  /// Blocking key of block `k`. Requires k < num_blocks() (debug-checked);
  /// use BlockKeyChecked for untrusted indices.
  const std::string& BlockKey(uint32_t k) const {
    ERLB_DCHECK(k < num_blocks());
    return block_keys_[k];
  }

  /// Bounds-checked BlockKey for untrusted indices (e.g. block numbers
  /// read back from serialized plans): OutOfRange instead of UB.
  [[nodiscard]] Result<std::string_view> BlockKeyChecked(uint32_t k) const;

  /// Number of entities of block `k` in partition `p`. O(log nnz(k)).
  uint64_t Size(uint32_t k, uint32_t p) const;

  /// Entities of block `k` in partitions 0..p-1 — the PairRange entity
  /// index offset ("the overall number of entities of Φk in all preceding
  /// partitions"). In two-source mode, only partitions of the same source
  /// as partition `p` are counted (entity enumeration is per source).
  uint64_t EntityIndexOffset(uint32_t k, uint32_t p) const;

  /// P: total pairs over all blocks.
  uint64_t TotalPairs() const;

  /// Total entities.
  uint64_t TotalEntities() const { return total_entities_; }

  /// 64-bit hash of the full matrix content (dictionary keys, nonzero
  /// cells, partition source tags), memoized at build/ApplyDelta time so
  /// fingerprinting a resident BDM per request costs O(1) instead of a
  /// CSR rescan. Two same-shape BDMs with different counts or keys get
  /// different hashes (modulo 64-bit collisions).
  uint64_t ContentHash() const { return content_hash_; }

  /// Source of input partition `p` (two-source mode only).
  er::Source PartitionSource(uint32_t p) const;
  const std::vector<er::Source>& partition_sources() const {
    return partition_sources_;
  }

  /// The largest block's index (ties: lowest index). Requires b >= 1.
  uint32_t LargestBlock() const;

  /// Serializes to triples (sorted by block, partition) — what Job 1 would
  /// have written to DFS.
  std::vector<BdmTriple> ToTriples() const;

 private:
  /// FromTriples with the partition source tags (empty = one source).
  [[nodiscard]] static Result<Bdm> Build(
      std::vector<BdmTriple> triples, uint32_t num_partitions,
      std::vector<er::Source> partition_sources);
  void BuildDerived();

  uint32_t num_partitions_ = 0;
  std::vector<std::string> block_keys_;  // b, sorted (the dictionary)
  // CSR: row k's nonzero cells are cells_[cell_offsets_[k] ..
  // cell_offsets_[k+1]), ascending by partition.
  std::vector<size_t> cell_offsets_;     // b+1
  std::vector<BdmCell> cells_;
  std::vector<er::Source> partition_sources_;          // empty = one source
  // Derived:
  std::vector<uint64_t> block_sizes_;                  // Σ_p counts[k][p]
  std::vector<uint64_t> block_sizes_r_;                // two-source only
  std::vector<uint64_t> block_sizes_s_;
  std::vector<uint64_t> pair_offsets_;                 // b+1 prefix sums
  uint64_t total_entities_ = 0;
  uint64_t content_hash_ = 0;
};

}  // namespace bdm
}  // namespace erlb

#endif  // ERLB_BDM_BDM_H_
