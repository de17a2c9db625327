#include "er/similarity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "er/entity.h"
#include "er/matcher.h"
#include "gen/skew_gen.h"

namespace erlb {
namespace er {
namespace {

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", "xy"), 2u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(EditDistance("intention", "execution"), 5u);
  EXPECT_EQ(EditDistance("a", "b"), 1u);
  EXPECT_EQ(EditDistance("ab", "ba"), 2u);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("sunday", "saturday"),
            EditDistance("saturday", "sunday"));
}

TEST(EditDistanceTest, TriangleInequalityOnSamples) {
  Pcg32 rng(31);
  auto random_str = [&](size_t max_len) {
    std::string s;
    size_t len = rng.NextBounded(static_cast<uint32_t>(max_len + 1));
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.NextBounded(4));
    }
    return s;
  };
  for (int iter = 0; iter < 200; ++iter) {
    std::string a = random_str(12), b = random_str(12), c = random_str(12);
    EXPECT_LE(EditDistance(a, c),
              EditDistance(a, b) + EditDistance(b, c));
  }
}

TEST(EditDistanceBoundedTest, AgreesWithFullWhenWithinBound) {
  Pcg32 rng(37);
  auto random_str = [&](size_t max_len) {
    std::string s;
    size_t len = rng.NextBounded(static_cast<uint32_t>(max_len + 1));
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.NextBounded(5));
    }
    return s;
  };
  for (int iter = 0; iter < 500; ++iter) {
    std::string a = random_str(16), b = random_str(16);
    size_t full = EditDistance(a, b);
    for (size_t bound : {0u, 1u, 2u, 4u, 8u, 16u}) {
      size_t banded = EditDistanceBounded(a, b, bound);
      if (full <= bound) {
        EXPECT_EQ(banded, full) << "a=" << a << " b=" << b
                                << " bound=" << bound;
      } else {
        EXPECT_GT(banded, bound) << "a=" << a << " b=" << b
                                 << " bound=" << bound;
      }
    }
  }
}

TEST(EditDistanceBoundedTest, LengthGapShortCircuit) {
  EXPECT_GT(EditDistanceBounded("abcdefgh", "a", 3), 3u);
  EXPECT_EQ(EditDistanceBounded("abcdefgh", "a", 7), 7u);
}

TEST(EditDistanceBoundedTest, EmptyStrings) {
  EXPECT_EQ(EditDistanceBounded("", "", 0), 0u);
  EXPECT_EQ(EditDistanceBounded("ab", "", 2), 2u);
  EXPECT_GT(EditDistanceBounded("abc", "", 2), 2u);
}

TEST(EditSimilarityTest, RangeAndIdentity) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(EditSimilarity("abcd", "abcx"), 0.75, 1e-12);
}

TEST(EditSimilarityTest, PaperThresholdExample) {
  // Two titles differing by one character out of ten: sim 0.9 >= 0.8.
  EXPECT_TRUE(EditSimilarityAtLeast("canon eos 5", "canon eos 6", 0.8));
  // Completely different strings fail.
  EXPECT_FALSE(EditSimilarityAtLeast("canon eos 5", "nikon d300x", 0.8));
}

TEST(EditSimilarityAtLeastTest, AgreesWithDirectComputation) {
  Pcg32 rng(41);
  auto random_str = [&](size_t max_len) {
    std::string s;
    size_t len = rng.NextBounded(static_cast<uint32_t>(max_len)) + 1;
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.NextBounded(6));
    }
    return s;
  };
  for (int iter = 0; iter < 500; ++iter) {
    std::string a = random_str(14), b = random_str(14);
    for (double t : {0.0, 0.3, 0.5, 0.8, 0.9, 1.0}) {
      bool expected = EditSimilarity(a, b) >= t - 1e-12;
      EXPECT_EQ(EditSimilarityAtLeast(a, b, t), expected)
          << "a=" << a << " b=" << b << " t=" << t;
    }
  }
}

// Parameterized sweep: edit similarity is symmetric and in [0,1].
class SimilarityPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SimilarityPropertyTest, SymmetricAndBounded) {
  auto [seed, len] = GetParam();
  Pcg32 rng(seed);
  auto random_str = [&](size_t max_len) {
    std::string s;
    size_t n = rng.NextBounded(static_cast<uint32_t>(max_len + 1));
    for (size_t i = 0; i < n; ++i) {
      s += static_cast<char>('a' + rng.NextBounded(8));
    }
    return s;
  };
  for (int iter = 0; iter < 50; ++iter) {
    std::string a = random_str(len), b = random_str(len);
    const double s = EditSimilarity(a, b);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    EXPECT_DOUBLE_EQ(s, EditSimilarity(b, a));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimilarityPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(4, 12, 24)));

// ---------------------------------------------------------------------
// Differential oracle for the bit-parallel Jaro kernel: the former
// scalar kernel, kept verbatim. The bit-parallel kernel must return the
// same double, bit for bit, on every input.
// ---------------------------------------------------------------------

double ScalarJaroOracle(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t la = a.size(), lb = b.size();
  const size_t window =
      std::max<size_t>(la, lb) / 2 == 0 ? 0 : std::max(la, lb) / 2 - 1;

  std::vector<bool> a_matched(la, false), b_matched(lb, false);
  size_t matches = 0;
  for (size_t i = 0; i < la; ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(lb, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = true;
        b_matched[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;

  // Transpositions: matched characters out of order, halved.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < la; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = static_cast<double>(matches);
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

/// JaroWinklerSimilarity's prefix boost applied to a given Jaro value.
double WinklerBoost(double jaro, std::string_view a, std::string_view b,
                    double prefix_scale = 0.1) {
  size_t prefix = 0;
  for (size_t i = 0; i < std::min({a.size(), b.size(), size_t{4}}); ++i) {
    if (a[i] != b[i]) break;
    ++prefix;
  }
  double jw = jaro + prefix * prefix_scale * (1.0 - jaro);
  return std::min(jw, 1.0);
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

std::string Printable(std::string_view s) {
  std::string out;
  for (unsigned char c : s) {
    if (c >= 0x20 && c < 0x7f) {
      out += static_cast<char>(c);
    } else {
      static const char kHex[] = "0123456789abcdef";
      out += "\\x";
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

/// Compares both kernels with the oracle in both argument orders;
/// returns the number of differing values and reports the first few.
size_t CountJaroMismatches(std::string_view a, std::string_view b) {
  size_t mismatches = 0;
  for (int order = 0; order < 2; ++order) {
    std::string_view x = order == 0 ? a : b;
    std::string_view y = order == 0 ? b : a;
    const double jaro = JaroSimilarity(x, y);
    const double jaro_oracle = ScalarJaroOracle(x, y);
    const double jw = JaroWinklerSimilarity(x, y);
    const double jw_oracle = WinklerBoost(jaro_oracle, x, y);
    if (!SameBits(jaro, jaro_oracle) || !SameBits(jw, jw_oracle)) {
      ++mismatches;
      ADD_FAILURE() << "a=\"" << Printable(x) << "\" b=\"" << Printable(y)
                    << "\" jaro=" << jaro << " oracle=" << jaro_oracle
                    << " jw=" << jw << " oracle=" << jw_oracle;
    }
  }
  return mismatches;
}

std::string RandomBytes(Pcg32* rng, size_t len,
                        const std::vector<char>& alphabet) {
  std::string s(len, '\0');
  for (auto& c : s) {
    c = alphabet[rng->NextBounded(static_cast<uint32_t>(alphabet.size()))];
  }
  return s;
}

/// `size` distinct byte values drawn from all 256, so large alphabets
/// include '\0' and bytes >= 0x80.
std::vector<char> RandomAlphabet(Pcg32* rng, size_t size) {
  std::vector<char> all(256);
  for (size_t c = 0; c < 256; ++c) all[c] = static_cast<char>(c);
  for (size_t i = 0; i < size; ++i) {
    size_t k = i + rng->NextBounded(static_cast<uint32_t>(256 - i));
    std::swap(all[i], all[k]);
  }
  all.resize(size);
  return all;
}

TEST(JaroOracleTest, PinnedValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  // Classic textbook pairs.
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.944444, 1e-6);
  EXPECT_NEAR(JaroSimilarity("DIXON", "DICKSONX"), 0.766667, 1e-6);
  EXPECT_NEAR(JaroWinklerSimilarity("MARTHA", "MARHTA"), 0.961111, 1e-6);
  EXPECT_EQ(CountJaroMismatches("MARTHA", "MARHTA"), 0u);
  EXPECT_EQ(CountJaroMismatches("DIXON", "DICKSONX"), 0u);
  EXPECT_EQ(CountJaroMismatches("CRATE", "TRACE"), 0u);
}

/// The Fig-9 skew shape (2000 entities, 100 blocks, s = 1, seed 1) and
/// every same-block pair of it, once.
struct SkewedPairs {
  std::vector<Entity> entities;
  std::vector<std::pair<const Entity*, const Entity*>> pairs;
};

SkewedPairs SkewedSameBlockPairs() {
  gen::SkewConfig cfg;
  cfg.num_entities = 2000;
  cfg.num_blocks = 100;
  cfg.skew = 1.0;
  cfg.seed = 1;
  auto entities = gen::GenerateSkewed(cfg);
  EXPECT_TRUE(entities.ok());
  SkewedPairs out;
  if (!entities.ok()) return out;
  out.entities = std::move(*entities);
  std::map<std::string, std::vector<const Entity*>> blocks;
  for (const auto& e : out.entities) {
    blocks[e.fields[gen::kSkewBlockField]].push_back(&e);
  }
  for (const auto& [key, members] : blocks) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        out.pairs.emplace_back(members[i], members[j]);
      }
    }
  }
  return out;
}

TEST(JaroOracleTest, SkewedSameBlockTitles) {
  const SkewedPairs skewed = SkewedSameBlockPairs();
  const JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);
  size_t mismatches = 0, decisions = 0, unsound = 0;
  // Every same-block pair, in both argument orders.
  for (const auto& [first, second] : skewed.pairs) {
    for (int order = 0; order < 2; ++order) {
      const Entity& x = order == 0 ? *first : *second;
      const Entity& y = order == 0 ? *second : *first;
      const std::string& tx = x.fields[gen::kSkewTitleField];
      const std::string& ty = y.fields[gen::kSkewTitleField];
      const double oracle = ScalarJaroOracle(tx, ty);
      const double jw_oracle = WinklerBoost(oracle, tx, ty);
      const double jw = JaroWinklerSimilarity(tx, ty, 0.1);
      if (!SameBits(JaroSimilarity(tx, ty), oracle) ||
          !SameBits(jw, jw_oracle)) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << "a=\"" << tx << "\" b=\"" << ty << "\"";
        }
      }
      const bool match = matcher.Match(x, y);
      if (match != (jw_oracle >= 0.85)) ++decisions;
      if (match != (matcher.Similarity(x, y) >= 0.85)) ++decisions;
      if (JaroWinklerAtLeast(tx, ty, 0.85, 0.1) != (jw >= 0.85)) ++decisions;
      if (JaroWinklerUpperBound(tx, ty, 0.1) < jw - 1e-9) ++unsound;
    }
  }
  EXPECT_GT(skewed.pairs.size(), 500000u);  // block 0 alone holds ~63%
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(decisions, 0u);
  EXPECT_EQ(unsound, 0u);
}

/// Thresholds at which JaroWinklerAtLeast must agree with the exact
/// similarity: fixed cut points, the pair's own value (the tightest
/// accept) and the next double above it (the tightest reject).
std::vector<double> DecisionThresholds(double jw) {
  const double above = std::nextafter(jw, 2.0);
  return {0.0, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0, jw, above};
}

std::string PairLabel(std::string_view a, std::string_view b) {
  std::string out = "a=\"";
  out += Printable(a);
  out += "\" b=\"";
  out += Printable(b);
  out += '"';
  return out;
}

/// Checks JaroWinklerAtLeast against JaroWinklerSimilarity >= t in both
/// argument orders, for every prefix scale and threshold, and that the
/// upper bound never falls below the similarity. Returns the number of
/// wrong decisions and unsound bounds and reports each.
size_t CountDecisionMismatches(std::string_view a, std::string_view b) {
  size_t mismatches = 0;
  for (int order = 0; order < 2; ++order) {
    std::string_view x = order == 0 ? a : b;
    std::string_view y = order == 0 ? b : a;
    for (double scale : {0.0, 0.1, 0.25, 0.3}) {
      const double jw = JaroWinklerSimilarity(x, y, scale);
      const double bound = JaroWinklerUpperBound(x, y, scale);
      if (bound < jw - 1e-9) {
        ++mismatches;
        ADD_FAILURE() << PairLabel(x, y) << " scale=" << scale << " jw=" << jw
                      << " bound=" << bound;
      }
      for (double t : DecisionThresholds(jw)) {
        if (JaroWinklerAtLeast(x, y, t, scale) != (jw >= t)) {
          ++mismatches;
          ADD_FAILURE() << PairLabel(x, y) << " scale=" << scale << " t=" << t
                        << " jw=" << jw;
        }
      }
    }
  }
  return mismatches;
}

TEST(JaroOracleTest, ThresholdDecisionsOnSkewedPairs) {
  const SkewedPairs skewed = SkewedSameBlockPairs();
  size_t sampled = 0, mismatches = 0;
  // A stride coprime to the block sizes spreads the sample over blocks.
  for (size_t k = 0; k < skewed.pairs.size() && mismatches < 10; k += 89) {
    ++sampled;
    mismatches += CountDecisionMismatches(
        skewed.pairs[k].first->fields[gen::kSkewTitleField],
        skewed.pairs[k].second->fields[gen::kSkewTitleField]);
  }
  EXPECT_GT(sampled, 9000u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(JaroOracleTest, ThresholdDecisionEdgeCases) {
  size_t mismatches = 0;
  // Empty strings: the bound steps aside, the kernel decides.
  mismatches += CountDecisionMismatches("", "");
  mismatches += CountDecisionMismatches("", "abc");
  EXPECT_TRUE(JaroWinklerAtLeast("", "", 1.0));
  EXPECT_FALSE(JaroWinklerAtLeast("", "abc", 1e-12));

  // The prefix bonus lifts this pair above its Jaro bound: JW 0.8286 vs
  // Jaro 0.7143, so a bound without the prefix term would reject it.
  mismatches += CountDecisionMismatches("abcdxyz", "abcdwvu");
  EXPECT_TRUE(JaroWinklerAtLeast("abcdxyz", "abcdwvu", 0.8));

  // Lengths around the uint8 bucket limit. 256 copies of one byte would
  // wrap its bucket count to 0 if the bound were applied there.
  Pcg32 rng(83);
  for (size_t la : {254u, 255u, 256u, 257u}) {
    for (size_t lb : {254u, 255u, 256u, 257u}) {
      mismatches += CountDecisionMismatches(std::string(la, 'a'),
                                            std::string(lb, 'a'));
      for (size_t alphabet_size : {2u, 26u, 256u}) {
        auto alphabet = RandomAlphabet(&rng, alphabet_size);
        std::string a = RandomBytes(&rng, la, alphabet);
        std::string b = RandomBytes(&rng, lb, alphabet);
        mismatches += CountDecisionMismatches(a, b);
        std::string c = a.substr(0, std::min(la, lb));
        c[c.size() / 2] = b[0];
        mismatches += CountDecisionMismatches(a, c);
      }
    }
    const std::string same(la, 'a');
    EXPECT_TRUE(JaroWinklerAtLeast(same, same, 1.0)) << la;
  }

  // '\0' and bytes >= 0x80 on both sides.
  mismatches += CountDecisionMismatches(std::string(5, '\0'),
                                        std::string(3, '\0'));
  mismatches += CountDecisionMismatches(std::string{'\x80', '\xff', '\0', 'a'},
                                        std::string{'\xff', '\x80', 'a', '\0'});
  std::string all(255, '\0');
  for (size_t c = 0; c < all.size(); ++c) all[c] = static_cast<char>(c + 1);
  const std::string reversed(all.rbegin(), all.rend());
  mismatches += CountDecisionMismatches(all, reversed);

  // Bytes 28 apart outside a-z and 0-9 share a bucket, so these pairs
  // overlap fully in the counts yet share no byte: the bound is loose
  // (JW is 0) and the kernel must still decide.
  std::string lo, hi;
  for (int base : {0, 128}) {
    for (int c = base; c < base + 28; ++c) {
      if (c + 28 >= '0' && c + 28 <= '9') continue;
      lo += static_cast<char>(c);
      hi += static_cast<char>(c + 28);
    }
  }
  ASSERT_EQ(lo.size(), 48u);
  EXPECT_GE(JaroWinklerUpperBound(lo, hi), 1.0 - 1e-9);
  EXPECT_EQ(JaroWinklerSimilarity(lo, hi), 0.0);
  mismatches += CountDecisionMismatches(lo, hi);
  mismatches += CountDecisionMismatches(" A", "<]");
  mismatches += CountDecisionMismatches("AB-x", "A^Ix");

  // Identical strings accept at t = 1.0.
  for (const char* s : {"a", "MARTHA", "digital camera qzkfjw-1234"}) {
    EXPECT_TRUE(JaroWinklerAtLeast(s, s, 1.0)) << s;
  }
  EXPECT_EQ(mismatches, 0u);
}

/// The decision of `matcher` on (x, y) three ways: Match, MatchSketched
/// over the matcher's own sketches, and the exact similarity against the
/// threshold. Returns 1 (and reports) if they disagree.
size_t CountSketchedMismatch(const JaroWinklerMatcher& matcher, double t,
                             double jw, const Entity& x, const FieldSketch& sx,
                             const Entity& y, const FieldSketch& sy) {
  const bool exact = jw >= t;
  const bool match = matcher.Match(x, y);
  const bool sketched = matcher.MatchSketched(x, sx, y, sy);
  if (match == exact && sketched == exact) return 0;
  ADD_FAILURE() << matcher.Describe() << " t=" << t << " jw=" << jw
                << " match=" << match << " sketched=" << sketched << " ids "
                << x.id << "," << y.id;
  return 1;
}

TEST(JaroOracleTest, SketchedDecisionsOnSkewedPairs) {
  const SkewedPairs skewed = SkewedSameBlockPairs();
  const Entity* base = skewed.entities.data();
  size_t mismatches = 0;
  for (double scale : {0.0, 0.1, 0.25}) {
    std::vector<std::pair<double, JaroWinklerMatcher>> matchers;
    std::vector<std::vector<FieldSketch>> sketches;
    for (double t : {0.7, 0.85, 0.95}) {
      matchers.emplace_back(t, JaroWinklerMatcher(t, gen::kSkewTitleField,
                                                  scale));
      sketches.emplace_back();
      for (const Entity& e : skewed.entities) {
        sketches.back().push_back(matchers.back().second.Sketch(e));
      }
    }
    for (const auto& [x, y] : skewed.pairs) {
      const double jw =
          JaroWinklerSimilarity(x->fields[gen::kSkewTitleField],
                                y->fields[gen::kSkewTitleField], scale);
      for (size_t m = 0; m < matchers.size() && mismatches < 10; ++m) {
        const auto& [t, matcher] = matchers[m];
        mismatches += CountSketchedMismatch(
            matcher, t, jw, *x, sketches[m][x - base], *y,
            sketches[m][y - base]);
      }
    }
  }
  EXPECT_GT(skewed.pairs.size(), 500000u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(JaroOracleTest, SketchedDecisionEdgeCases) {
  Pcg32 rng(89);
  const auto bytes = RandomAlphabet(&rng, 256);  // '\0' and >= 0x80 too
  std::vector<Entity> entities;
  for (const std::string& field :
       {std::string(), std::string("a"), std::string(255, 'a'),
        std::string(256, 'a'), RandomBytes(&rng, 255, bytes),
        RandomBytes(&rng, 256, bytes),
        std::string{'\x80', '\xff', '\0', 'a'},
        std::string{'\xff', '\x80', 'a', '\0'}, std::string("MARTHA"),
        std::string("MARHTA"), std::string("abcdxyz"),
        std::string("abcdwvu")}) {
    Entity e;
    e.id = entities.size();
    e.fields = {field};
    entities.push_back(std::move(e));
  }
  // A 255-byte field one byte off another: the bound applies and is
  // tight; a field index past the entity's fields reads as empty.
  Entity near = entities[4];
  near.id = entities.size();
  near.fields[0][100] = near.fields[0][101];
  entities.push_back(std::move(near));
  Entity missing;
  missing.id = entities.size();
  entities.push_back(std::move(missing));

  size_t mismatches = 0;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double scale : {0.0, 0.1, 0.25, 0.3, -0.1, nan}) {
    const JaroWinklerMatcher probe(0.5, 0, scale);
    for (const Entity& x : entities) {
      for (const Entity& y : entities) {
        const double jw = probe.Similarity(x, y);
        for (double t : DecisionThresholds(jw)) {
          const JaroWinklerMatcher matcher(t, 0, scale);
          mismatches += CountSketchedMismatch(matcher, t, jw, x,
                                              matcher.Sketch(x), y,
                                              matcher.Sketch(y));
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JaroOracleTest, SketchStepsAside) {
  EXPECT_FALSE(FieldSketch{}.usable);
  EXPECT_FALSE(SketchField("").usable);
  EXPECT_FALSE(SketchField(std::string(256, 'a')).usable);
  // A sketch summarizes one string and knows no prefix scale: the bound
  // itself steps aside for a scale outside [0, 0.25] or NaN, even on
  // usable sketches. With prefix 4 and scale 0.3 the Winkler boost falls
  // as Jaro rises, so a byte-count bound there could reject a match.
  const FieldSketch sa = SketchField("abcdxyz");
  const FieldSketch sb = SketchField("abcdwvu");
  ASSERT_TRUE(sa.usable && sb.usable);
  EXPECT_LT(JaroWinklerUpperBound("abcdxyz", sa, "abcdwvu", sb, 0.1), 1.0);
  for (double scale :
       {0.3, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(JaroWinklerUpperBound("abcdxyz", sa, "abcdwvu", sb, scale),
              1.0)
        << scale;
  }
  const FieldSketch full = SketchField(std::string(255, '\xff'));
  EXPECT_TRUE(full.usable);
  EXPECT_EQ(full.length, 255u);
  size_t total = 0;
  for (uint8_t c : full.counts) total += c;
  EXPECT_EQ(total, 255u);
  // Field 3 does not exist: it reads as empty, so no sketch applies.
  Entity e;
  e.fields = {"abc"};
  EXPECT_FALSE(JaroWinklerMatcher(0.8, 3).Sketch(e).usable);
  EXPECT_TRUE(JaroWinklerMatcher(0.8, 0).Sketch(e).usable);
  // A matcher without a sketch override: unusable sketches, and
  // MatchSketched is Match.
  const LambdaMatcher lambda(
      [](const Entity& a, const Entity& b) { return a.id + 1 == b.id; },
      "next-id");
  Entity f;
  f.id = 1;
  EXPECT_FALSE(lambda.Sketch(e).usable);
  EXPECT_TRUE(lambda.MatchSketched(e, lambda.Sketch(e), f, lambda.Sketch(f)));
  EXPECT_FALSE(lambda.MatchSketched(f, lambda.Sketch(f), e, lambda.Sketch(e)));
}

TEST(JaroOracleTest, UpperBoundStepsAside) {
  const std::string s(256, 'a');
  EXPECT_EQ(JaroWinklerUpperBound("", "abc"), 1.0);
  EXPECT_EQ(JaroWinklerUpperBound("abc", ""), 1.0);
  EXPECT_EQ(JaroWinklerUpperBound(s, "xyz"), 1.0);
  EXPECT_EQ(JaroWinklerUpperBound("xyz", s), 1.0);
  // Outside [0, 0.25] JW need not be nondecreasing in Jaro, so the bound
  // steps aside there too.
  EXPECT_EQ(JaroWinklerUpperBound("abc", "xyz", 0.3), 1.0);
  EXPECT_EQ(JaroWinklerUpperBound("abc", "xyz", -0.1), 1.0);
  // Inside it, disjoint strings get the bound's floor of 1/3.
  EXPECT_NEAR(JaroWinklerUpperBound("abc", "xyz"), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(JaroWinklerUpperBound(s.substr(1), "xyz"), 1.0 / 3.0, 1e-12);
}

TEST(JaroOracleTest, LengthsAroundWordBoundaries) {
  Pcg32 rng(71);
  std::vector<size_t> lengths = {1, 2, 3};
  for (size_t edge : {32u, 64u, 96u, 128u, 192u, 256u}) {
    lengths.insert(lengths.end(), {edge - 1, edge, edge + 1});
  }
  size_t mismatches = 0;
  for (size_t alphabet_size : {2u, 4u, 26u, 256u}) {
    for (size_t la : lengths) {
      for (size_t lb : lengths) {
        for (int rep = 0; rep < 3 && mismatches < 10; ++rep) {
          auto alphabet = RandomAlphabet(&rng, alphabet_size);
          std::string a = RandomBytes(&rng, la, alphabet);
          std::string b = RandomBytes(&rng, lb, alphabet);
          mismatches += CountJaroMismatches(a, b);
          // Near-duplicates exercise long match runs and transpositions.
          std::string c = a;
          for (size_t k = 0; k + 1 < c.size(); k += 7) {
            std::swap(c[k], c[k + 1]);
          }
          mismatches += CountJaroMismatches(a, c);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JaroOracleTest, AlphabetsFromTwoTo256Bytes) {
  Pcg32 rng(73);
  size_t mismatches = 0;
  for (size_t alphabet_size = 2; alphabet_size <= 256 && mismatches < 10;
       ++alphabet_size) {
    auto alphabet = RandomAlphabet(&rng, alphabet_size);
    for (int rep = 0; rep < 40; ++rep) {
      std::string a = RandomBytes(&rng, rng.NextBounded(301), alphabet);
      std::string b = RandomBytes(&rng, rng.NextBounded(301), alphabet);
      mismatches += CountJaroMismatches(a, b);
    }
  }
  // Every byte value, '\0' and bytes >= 0x80 included, on both sides.
  std::string all(256, '\0');
  for (size_t c = 0; c < 256; ++c) all[c] = static_cast<char>(c);
  std::string reversed(all.rbegin(), all.rend());
  mismatches += CountJaroMismatches(all, reversed);
  mismatches += CountJaroMismatches(all, all.substr(128) + all.substr(0, 128));
  mismatches += CountJaroMismatches(std::string(5, '\0'), std::string(3, '\0'));
  mismatches += CountJaroMismatches(std::string{'\x80', '\xff', '\0', 'a'},
                                    std::string{'\xff', '\x80', 'a', '\0'});
  EXPECT_EQ(mismatches, 0u);
}

TEST(JaroOracleTest, ShortStringsWithZeroWindow) {
  // Lengths 1-3 give a match window of 0: only aligned characters match.
  const std::vector<char> alphabet = {'a', 'b', 'c', '\0'};
  std::vector<std::string> all;
  all.emplace_back();
  for (size_t len = 1; len <= 3; ++len) {
    size_t count = 1;
    for (size_t k = 0; k < len; ++k) count *= alphabet.size();
    for (size_t code = 0; code < count; ++code) {
      std::string s;
      for (size_t k = 0, c = code; k < len; ++k, c /= alphabet.size()) {
        s += alphabet[c % alphabet.size()];
      }
      all.push_back(s);
    }
  }
  size_t mismatches = 0;
  for (const auto& a : all) {
    for (const auto& b : all) {
      if (mismatches < 10) mismatches += CountJaroMismatches(a, b);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JaroOracleTest, VeryUnequalLengths) {
  Pcg32 rng(79);
  size_t mismatches = 0;
  for (size_t alphabet_size : {2u, 8u, 64u, 256u}) {
    auto alphabet = RandomAlphabet(&rng, alphabet_size);
    for (size_t short_len : {1u, 2u, 5u, 40u}) {
      // Past 4096 characters the kernel releases its scratch; the next
      // (short) call must still be exact.
      for (size_t long_len : {200u, 1000u, 5000u}) {
        std::string a = RandomBytes(&rng, short_len, alphabet);
        std::string b = RandomBytes(&rng, long_len, alphabet);
        mismatches += CountJaroMismatches(a, b);
        mismatches += CountJaroMismatches(b.substr(long_len / 2), b);
        mismatches += CountJaroMismatches(a, a + b.substr(0, 3));
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace er
}  // namespace erlb
