#include "er/similarity.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

namespace erlb {
namespace er {

namespace {
// Reused DP row buffers: the matchers call these kernels millions of
// times from parallel reduce tasks, and per-call heap allocation
// serializes on the allocator.
std::vector<size_t>& TlsRow() {
  thread_local std::vector<size_t> row;
  return row;
}
}  // namespace

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string
  const size_t n = b.size();
  if (n == 0) return a.size();

  std::vector<size_t>& row = TlsRow();
  row.assign(n + 1, 0);
  for (size_t j = 0; j <= n; ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t prev_diag = row[0];  // D[i-1][0]
    row[0] = i;
    for (size_t j = 1; j <= n; ++j) {
      size_t cur = row[j];  // D[i-1][j]
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({row[j] + 1,        // deletion
                         row[j - 1] + 1,    // insertion
                         prev_diag + cost}  // substitution
      );
      prev_diag = cur;
    }
  }
  return row[n];
}

size_t EditDistanceBounded(std::string_view a, std::string_view b,
                           size_t bound) {
  if (a.size() < b.size()) std::swap(a, b);
  const size_t la = a.size(), lb = b.size();
  if (la - lb > bound) return bound + 1;
  if (lb == 0) return la;

  // Ukkonen band: only cells with |i - j| <= bound can hold values <= bound.
  const size_t kInf = bound + 1;
  std::vector<size_t>& row = TlsRow();
  row.assign(lb + 1, kInf);
  for (size_t j = 0; j <= std::min(lb, bound); ++j) row[j] = j;

  for (size_t i = 1; i <= la; ++i) {
    size_t jlo = (i > bound) ? i - bound : 1;
    size_t jhi = std::min(lb, i + bound);
    if (jlo > jhi) return bound + 1;
    size_t prev_diag = (jlo == 1) ? ((i - 1 <= bound) ? i - 1 : kInf)
                                  : row[jlo - 1];
    size_t left = (jlo == 1 && i <= bound) ? i : kInf;  // D[i][jlo-1]
    size_t row_min = kInf;
    for (size_t j = jlo; j <= jhi; ++j) {
      size_t up = row[j];  // D[i-1][j]
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      size_t val = std::min({up == kInf ? kInf : up + 1,
                             left == kInf ? kInf : left + 1,
                             prev_diag == kInf ? kInf : prev_diag + cost});
      val = std::min(val, kInf);
      prev_diag = up;
      row[j] = val;
      left = val;
      row_min = std::min(row_min, val);
    }
    if (jlo > 1) row[jlo - 1] = kInf;  // cell left of band is dead now
    if (row_min > bound) return bound + 1;
  }
  return row[lb];
}

double EditSimilarity(std::string_view a, std::string_view b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  size_t d = EditDistance(a, b);
  return 1.0 - static_cast<double>(d) / static_cast<double>(max_len);
}

bool EditSimilarityAtLeast(std::string_view a, std::string_view b,
                           double threshold) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return threshold <= 1.0;
  if (threshold <= 0.0) return true;
  // sim >= t  <=>  dist <= (1 - t) * max_len
  double allowed = (1.0 - threshold) * static_cast<double>(max_len);
  size_t bound = static_cast<size_t>(std::floor(allowed + 1e-9));
  return EditDistanceBounded(a, b, bound) <= bound;
}

namespace {

/// Per-thread bitmaps for JaroSimilarity. `rows` holds 256 occurrence
/// bitmaps of `b` (row c, word w at c * words + w); it is all zero
/// between calls, so a call only sets and clears the words its `b`
/// touches and the row stride may change from call to call.
struct JaroScratch {
  std::vector<uint64_t> rows;
  std::vector<uint64_t> b_free;     // bit j: b[j] not yet matched
  std::vector<uint64_t> a_matched;  // bit i: a[i] matched
};

JaroScratch& TlsJaroScratch() {
  thread_local JaroScratch s;
  return s;
}

/// Fields longer than this release the scratch after the call, so one
/// long field does not pin 256 rows of its length per thread.
constexpr size_t kJaroPinnedChars = 4096;

}  // namespace

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t la = a.size(), lb = b.size();
  const size_t window =
      std::max<size_t>(la, lb) / 2 == 0 ? 0 : std::max(la, lb) / 2 - 1;
  const size_t words = (lb + 63) / 64;

  JaroScratch& s = TlsJaroScratch();
  if (s.rows.size() < 256 * words) s.rows.resize(256 * words);
  s.b_free.assign(words, ~uint64_t{0});
  s.a_matched.assign((la + 63) / 64, 0);
  uint64_t* rows = s.rows.data();
  uint64_t* b_free = s.b_free.data();
  uint64_t* a_matched = s.a_matched.data();
  for (size_t j = 0; j < lb; ++j) {
    rows[static_cast<unsigned char>(b[j]) * words + (j >> 6)] |=
        uint64_t{1} << (j & 63);
  }

  // Greedy matching, as the scalar scan does it: a[i] takes the first
  // unmatched equal character of b in its window [lo, hi).
  size_t matches = 0;
  for (size_t i = 0; i < la; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(lb, i + window + 1);
    if (lo >= hi) continue;
    const uint64_t* row = rows + static_cast<unsigned char>(a[i]) * words;
    const size_t lo_w = lo >> 6, hi_w = (hi - 1) >> 6;
    for (size_t w = lo_w; w <= hi_w; ++w) {
      uint64_t bits = row[w] & b_free[w];
      if (w == lo_w) bits &= ~uint64_t{0} << (lo & 63);
      if (w == hi_w) bits &= ~uint64_t{0} >> (63 - ((hi - 1) & 63));
      if (bits != 0) {
        b_free[w] ^= bits & (~bits + 1);  // lowest set bit
        a_matched[i >> 6] |= uint64_t{1} << (i & 63);
        ++matches;
        break;
      }
    }
  }

  // Transpositions: matched characters out of order, halved. The matched
  // bits of a and of b are walked in step; bits of b_free past lb are
  // never cleared, so ~b_free holds exactly the matched positions of b.
  size_t transpositions = 0;
  size_t bw = 0;
  uint64_t b_bits = ~b_free[0];
  for (size_t aw = 0; aw < s.a_matched.size(); ++aw) {
    for (uint64_t a_bits = a_matched[aw]; a_bits != 0; a_bits &= a_bits - 1) {
      while (b_bits == 0) b_bits = ~b_free[++bw];
      const size_t i = (aw << 6) + std::countr_zero(a_bits);
      const size_t j = (bw << 6) + std::countr_zero(b_bits);
      b_bits &= b_bits - 1;
      if (a[i] != b[j]) ++transpositions;
    }
  }

  for (size_t j = 0; j < lb; ++j) {
    rows[static_cast<unsigned char>(b[j]) * words + (j >> 6)] = 0;
  }
  if (std::max(la, lb) > kJaroPinnedChars) s = JaroScratch();

  if (matches == 0) return 0.0;
  const double m = static_cast<double>(matches);
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

namespace {

/// Length of the common prefix of `a` and `b`, capped at 4.
size_t WinklerPrefix(std::string_view a, std::string_view b) {
  size_t prefix = 0;
  for (size_t i = 0; i < std::min({a.size(), b.size(), size_t{4}}); ++i) {
    if (a[i] != b[i]) break;
    ++prefix;
  }
  return prefix;
}

double WinklerBoost(double jaro, size_t prefix, double prefix_scale) {
  double jw = jaro + prefix * prefix_scale * (1.0 - jaro);
  return std::min(jw, 1.0);
}

/// Byte -> one of the kJaroBuckets count buckets of the Jaro-Winkler
/// upper bound. a-z and 0-9 get a bucket each (36 in all); every other
/// byte folds into the remaining 28. Sharing a bucket only loosens the
/// bound.
constexpr std::array<uint8_t, 256> MakeJaroBucketOf() {
  std::array<uint8_t, 256> t{};
  for (int c = 0; c < 256; ++c) {
    if (c >= 'a' && c <= 'z') {
      t[c] = static_cast<uint8_t>(c - 'a');
    } else if (c >= '0' && c <= '9') {
      t[c] = static_cast<uint8_t>(26 + (c - '0'));
    } else {
      t[c] = static_cast<uint8_t>(36 + c % 28);
    }
  }
  return t;
}

constexpr std::array<uint8_t, 256> kJaroBucketOf = MakeJaroBucketOf();

/// Strings shorter than this cannot overflow a uint8 bucket count.
constexpr size_t kJaroBoundMaxLen = 256;

}  // namespace

double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_scale) {
  return WinklerBoost(JaroSimilarity(a, b), WinklerPrefix(a, b),
                      prefix_scale);
}

FieldSketch SketchField(std::string_view s) {
  FieldSketch sketch;
  if (s.empty() || s.size() >= kJaroBoundMaxLen) return sketch;
  for (char c : s) {
    ++sketch.counts[kJaroBucketOf[static_cast<unsigned char>(c)]];
  }
  sketch.length = static_cast<uint32_t>(s.size());
  sketch.usable = true;
  return sketch;
}

double JaroWinklerUpperBound(std::string_view a, const FieldSketch& sa,
                             std::string_view b, const FieldSketch& sb,
                             double prefix_scale) {
  // Written with ! so that a NaN prefix_scale also steps aside.
  if (!sa.usable || !sb.usable || !(prefix_scale >= 0.0) ||
      !(prefix_scale <= 0.25)) {
    return 1.0;
  }
  // The Jaro match count m is at most the multiset overlap of the two
  // strings' bytes, counted here per bucket.
  uint32_t overlap = 0;
  for (size_t k = 0; k < kJaroBuckets; ++k) {
    overlap += std::min(sa.counts[k], sb.counts[k]);
  }
  // With m <= overlap, Jaro <= (overlap/|a| + overlap/|b| + 1) / 3, and
  // JW is nondecreasing in Jaro for prefix_scale in [0, 0.25].
  const double m = static_cast<double>(overlap);
  const double jaro = (m / sa.length + m / sb.length + 1.0) / 3.0;
  return WinklerBoost(jaro, WinklerPrefix(a, b), prefix_scale);
}

double JaroWinklerUpperBound(std::string_view a, std::string_view b,
                             double prefix_scale) {
  return JaroWinklerUpperBound(a, SketchField(a), b, SketchField(b),
                               prefix_scale);
}

bool JaroWinklerAtLeast(std::string_view a, const FieldSketch& sa,
                        std::string_view b, const FieldSketch& sb,
                        double threshold, double prefix_scale) {
  if (JaroWinklerUpperBound(a, sa, b, sb, prefix_scale) < threshold - 1e-9) {
    return false;
  }
  return JaroWinklerSimilarity(a, b, prefix_scale) >= threshold;
}

bool JaroWinklerAtLeast(std::string_view a, std::string_view b,
                        double threshold, double prefix_scale) {
  return JaroWinklerAtLeast(a, SketchField(a), b, SketchField(b), threshold,
                            prefix_scale);
}

}  // namespace er
}  // namespace erlb
