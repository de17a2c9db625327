// String similarity measures. The paper matches entities by normalized
// edit distance on titles with threshold 0.8; Jaro-Winkler is the
// record-linkage measure for short name-like attributes.
#ifndef ERLB_ER_SIMILARITY_H_
#define ERLB_ER_SIMILARITY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace erlb {
namespace er {

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
/// O(|a|·|b|) time, O(min(|a|,|b|)) space.
size_t EditDistance(std::string_view a, std::string_view b);

/// Banded Levenshtein: returns the exact distance if it is <= `bound`,
/// otherwise any value > `bound`. O(bound · min(|a|,|b|)) time; this is the
/// kernel the threshold matcher uses (a similarity threshold t implies the
/// band bound = floor((1-t) · max_len)).
size_t EditDistanceBounded(std::string_view a, std::string_view b,
                           size_t bound);

/// Normalized edit similarity in [0,1]: 1 - dist/max(|a|,|b|).
/// Two empty strings have similarity 1.
double EditSimilarity(std::string_view a, std::string_view b);

/// True iff EditSimilarity(a,b) >= threshold; computed with the banded
/// kernel, so much faster than computing the full similarity for
/// non-matches.
bool EditSimilarityAtLeast(std::string_view a, std::string_view b,
                           double threshold);

/// Jaro similarity in [0,1]: the classic record-linkage measure based on
/// matching characters within a window and transpositions. Each a[i]
/// matches the first not-yet-matched equal character of `b` in its
/// window (the greedy textbook scan), found bit-parallel over per-byte
/// occurrence bitmaps of `b`: O(|b| + |a|·⌈window/64⌉) time, where
/// window = max(|a|,|b|)/2 - 1. The bitmaps live in thread-local
/// scratch, so there is no heap allocation in steady state; a call with a
/// string longer than 4096 bytes releases the scratch afterwards.
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler: Jaro boosted by a common-prefix bonus
/// (`prefix_scale` per shared leading character, up to 4; standard value
/// 0.1). For `prefix_scale` in [0, 0.25] the result lies in [0,1] and is
/// nondecreasing in the Jaro value; a negative scale can push it below 0.
double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_scale = 0.1);

/// Number of byte-count buckets of the Jaro-Winkler upper bound. a-z and
/// 0-9 get a bucket each; every other byte folds into the other 28.
inline constexpr size_t kJaroBuckets = 64;

/// What the Jaro-Winkler upper bound needs of one string, computed once
/// per string (per entity, in the reduce phase) and read by every pair it
/// takes part in: its bytes counted per bucket, and its length.
/// `usable` is false where the bound steps aside: the string is empty or
/// 256 bytes or longer. A default-constructed sketch is unusable.
struct FieldSketch {
  std::array<uint8_t, kJaroBuckets> counts{};
  uint32_t length = 0;
  bool usable = false;
};

/// Sketches `s` for the bound. O(|s|), no allocation.
FieldSketch SketchField(std::string_view s);

/// An upper bound on JaroWinklerSimilarity(a, b, prefix_scale) from byte
/// counts alone, given sa = SketchField(a) and sb = SketchField(b): the
/// Jaro match count is at most the multiset overlap
/// Σ_k min(sa.counts[k], sb.counts[k]) of the two strings' bytes, and the
/// exact common prefix of `a` and `b` gives the Winkler bonus. It returns
/// 1.0 when either sketch is unusable or `prefix_scale` is outside
/// [0, 0.25] or NaN (there JW is not monotone in Jaro).
/// O(kJaroBuckets), no allocation.
double JaroWinklerUpperBound(std::string_view a, const FieldSketch& sa,
                             std::string_view b, const FieldSketch& sb,
                             double prefix_scale = 0.1);

/// The same bound, sketching both strings first. O(|a| + |b|).
double JaroWinklerUpperBound(std::string_view a, std::string_view b,
                             double prefix_scale = 0.1);

/// True iff JaroWinklerSimilarity(a, b, prefix_scale) >= threshold, given
/// the two strings' sketches; the decision is exact for every input. A pair whose JaroWinklerUpperBound is below `threshold`
/// (less 1e-9 of rounding slack) is rejected from the sketches alone.
/// Every other pair runs the Jaro kernel.
bool JaroWinklerAtLeast(std::string_view a, const FieldSketch& sa,
                        std::string_view b, const FieldSketch& sb,
                        double threshold, double prefix_scale = 0.1);

/// The same decision, sketching both strings first.
bool JaroWinklerAtLeast(std::string_view a, std::string_view b,
                        double threshold, double prefix_scale = 0.1);

}  // namespace er
}  // namespace erlb

#endif  // ERLB_ER_SIMILARITY_H_
