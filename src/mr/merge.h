// Stable k-way merge of sorted runs — the reduce-side shuffle kernel.
//
// Each map task hands every reduce task one run that is already sorted by
// the job's key order (map output is stable-sorted before the scatter and
// the scatter preserves order). Rebuilding the total order therefore needs
// only a merge of m sorted runs, O(N log m) comparisons, not a full
// O(N log N) re-sort of their concatenation. The merge must also be
// *stable across runs*: pairs with equal keys come out grouped by run
// (map-task) index, in run order — the Hadoop merge-contiguity guarantee
// Algorithm 1's streaming reduce depends on.
//
// One merge per shuffle, identical output:
//  * MergeSortedRuns — the in-memory shuffle's: adjacent vector runs are
//    two-way merged with std::merge until one remains. O(N log m) element
//    moves, but std::merge's tight two-way loop is 2-3x faster than a
//    loser tree's branchy replay for 4..256 runs of small pairs
//    (measured on x86-64, 512k pairs).
//  * LoserTreeMergeCursors — the external shuffle's: a single-pass
//    tournament tree over cursors (file-backed RunCursors, mr/spill.h),
//    O(N log m) comparisons and O(m) state, so it streams runs that do
//    not fit in memory.
//
// `ConcatAndStableSort` is the engine's previous concatenate-then-
// stable-sort path, kept as the oracle for differential tests and as the
// "before" side of the micro benches.
#ifndef ERLB_MR_MERGE_H_
#define ERLB_MR_MERGE_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

namespace erlb {
namespace mr {

namespace internal {

/// Builds the loser tree below `node`, storing losers in (*tree)[node..]
/// and returning the winner of the subtree. Leaves are run indexes
/// (possibly >= the real run count for power-of-two padding; `beats`
/// treats those as exhausted).
template <typename Beats>
size_t BuildLoserTree(size_t node, size_t leaves, const Beats& beats,
                      std::vector<size_t>* tree) {
  if (node >= leaves) return node - leaves;
  size_t a = BuildLoserTree(2 * node, leaves, beats, tree);
  size_t b = BuildLoserTree(2 * node + 1, leaves, beats, tree);
  if (beats(a, b)) {
    (*tree)[node] = b;
    return a;
  }
  (*tree)[node] = a;
  return b;
}

}  // namespace internal

/// Reference shuffle: concatenates `runs` in run order and stable-sorts by
/// `less`. Copies its input (the runs are left untouched) so differential
/// tests can compare it against the merges on the same data.
template <typename T, typename Less>
std::vector<T> ConcatAndStableSort(std::span<const std::vector<T>> runs,
                                   const Less& less) {
  size_t total = 0;
  for (const auto& r : runs) total += r.size();
  std::vector<T> out;
  out.reserve(total);
  for (const auto& r : runs) out.insert(out.end(), r.begin(), r.end());
  std::stable_sort(out.begin(), out.end(), less);
  return out;
}

/// Merges `runs` — each already sorted by `less` (equal elements in any
/// order within a run) — into one sorted vector, moving elements out of
/// the runs (which are left empty). Elements that compare equal are
/// emitted grouped by run index in ascending order, preserving each run's
/// internal order, so the result is exactly what ConcatAndStableSort
/// produces from the same runs.
///
/// Balanced binary merge tree: round-merges adjacent runs with
/// std::merge. std::merge is stable with first-range precedence, and
/// rounds always merge a lower run-index range as the first range, so the
/// cross-run tie rule holds at every level.
template <typename T, typename Less>
std::vector<T> MergeSortedRuns(std::span<std::vector<T>> runs,
                               const Less& less) {
  std::vector<std::vector<T>> cur;
  cur.reserve(runs.size());
  for (auto& r : runs) {
    if (!r.empty()) cur.push_back(std::move(r));
    r.clear();
  }
  if (cur.empty()) return {};
  while (cur.size() > 1) {
    std::vector<std::vector<T>> next;
    next.reserve((cur.size() + 1) / 2);
    for (size_t i = 0; i + 1 < cur.size(); i += 2) {
      std::vector<T> merged;
      merged.reserve(cur[i].size() + cur[i + 1].size());
      std::merge(std::make_move_iterator(cur[i].begin()),
                 std::make_move_iterator(cur[i].end()),
                 std::make_move_iterator(cur[i + 1].begin()),
                 std::make_move_iterator(cur[i + 1].end()),
                 std::back_inserter(merged), less);
      next.push_back(std::move(merged));
    }
    if (cur.size() % 2) next.push_back(std::move(cur.back()));
    cur = std::move(next);
  }
  return std::move(cur.front());
}

/// Single-pass tournament merge over an arbitrary span of cursors — the
/// kernel the external shuffle's file-backed RunCursors (mr/spill.h) run
/// on. A cursor is anything with
///   using value_type = T;
///   bool exhausted() const;       // no more elements
///   const T& head() const;        // current element (only if !exhausted)
///   T Pop();                      // take head and advance
/// Elements come out in `less` order; ties break on cursor index in span
/// order, preserving each cursor's internal order — the cross-run
/// stability rule of the shuffle. `consume` receives every element.
/// O(N log m) comparisons, O(m) extra state regardless of run sizes.
template <typename Cursor, typename Less, typename Consume>
void LoserTreeMergeCursors(std::span<Cursor> cursors, const Less& less,
                           const Consume& consume) {
  const size_t m = cursors.size();
  size_t live = 0, last_live = 0;
  for (size_t i = 0; i < m; ++i) {
    if (!cursors[i].exhausted()) {
      ++live;
      last_live = i;
    }
  }
  if (live == 0) return;
  if (live == 1) {
    while (!cursors[last_live].exhausted()) {
      consume(cursors[last_live].Pop());
    }
    return;
  }

  // Power-of-two leaf count; padding leaves index past `m` and always
  // lose (exhausted).
  size_t leaves = 1;
  while (leaves < m) leaves <<= 1;
  auto exhausted = [&](size_t c) {
    return c >= m || cursors[c].exhausted();
  };
  // Strict "cursor a's head precedes cursor b's head": key order first,
  // cursor index as the tie-break (the cross-run stability rule).
  auto beats = [&](size_t a, size_t b) {
    if (exhausted(a)) return false;
    if (exhausted(b)) return true;
    const auto& ea = cursors[a].head();
    const auto& eb = cursors[b].head();
    if (less(ea, eb)) return true;
    if (less(eb, ea)) return false;
    return a < b;
  };

  std::vector<size_t> tree(leaves, 0);
  size_t winner = internal::BuildLoserTree(1, leaves, beats, &tree);
  while (!exhausted(winner)) {
    consume(cursors[winner].Pop());
    // Replay the path from the winner's leaf to the root: the new head of
    // that cursor fights the stored losers.
    size_t cand = winner;
    for (size_t node = (leaves + winner) >> 1; node >= 1; node >>= 1) {
      if (beats(tree[node], cand)) std::swap(tree[node], cand);
    }
    winner = cand;
  }
}

}  // namespace mr
}  // namespace erlb

#endif  // ERLB_MR_MERGE_H_
