#include "common/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace erlb {
namespace {

TEST(Pcg32Test, DeterministicForSameSeed) {
  Pcg32 a(123, 7), b(123, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Pcg32Test, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int differs = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differs;
  }
  EXPECT_GT(differs, 24);
}

TEST(Pcg32Test, DifferentStreamsDiffer) {
  Pcg32 a(1, 10), b(1, 11);
  int differs = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differs;
  }
  EXPECT_GT(differs, 24);
}

TEST(Pcg32Test, BoundedStaysInBounds) {
  Pcg32 rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Pcg32Test, BoundedCoversAllValues) {
  Pcg32 rng(5);
  std::set<uint32_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Pcg32Test, NextInRangeInclusive) {
  Pcg32 rng(4);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) lo_seen = true;
    if (v == 3) hi_seen = true;
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Pcg32Test, NextInRangeSingleton) {
  Pcg32 rng(4);
  EXPECT_EQ(rng.NextInRange(5, 5), 5);
}

TEST(Pcg32Test, DoubleInUnitInterval) {
  Pcg32 rng(6);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Pcg32Test, GaussianMoments) {
  Pcg32 rng(8);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian(10.0, 2.0);
    sum += g;
    sq += g * g;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(ZipfSamplerTest, ProbabilitiesSumToOne) {
  ZipfSampler z(50, 1.1);
  double sum = 0;
  for (uint32_t k = 0; k < 50; ++k) sum += z.Probability(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, RankZeroIsMostProbable) {
  ZipfSampler z(100, 0.8);
  for (uint32_t k = 1; k < 100; ++k) {
    EXPECT_GE(z.Probability(0), z.Probability(k));
  }
}

TEST(ZipfSamplerTest, ExponentZeroIsUniform) {
  ZipfSampler z(10, 0.0);
  for (uint32_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(z.Probability(k), 0.1, 1e-9);
  }
}

TEST(ZipfSamplerTest, EmpiricalFrequenciesTrackProbabilities) {
  ZipfSampler z(20, 1.0);
  Pcg32 rng(11);
  std::vector<int> counts(20, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) counts[z.Sample(&rng)]++;
  for (uint32_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), z.Probability(k), 0.01);
  }
}

TEST(ZipfSamplerTest, SingleRank) {
  ZipfSampler z(1, 2.0);
  Pcg32 rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(z.Sample(&rng), 0u);
}

TEST(ShuffleTest, ProducesPermutation) {
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<int> orig = v;
  Pcg32 rng(12);
  Shuffle(&v, &rng);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ShuffleTest, EmptyAndSingleton) {
  std::vector<int> e;
  Pcg32 rng(1);
  Shuffle(&e, &rng);
  EXPECT_TRUE(e.empty());
  std::vector<int> s{42};
  Shuffle(&s, &rng);
  EXPECT_EQ(s, std::vector<int>{42});
}

TEST(ShuffleTest, DeterministicForSeed) {
  std::vector<int> a{1, 2, 3, 4, 5}, b{1, 2, 3, 4, 5};
  Pcg32 r1(77), r2(77);
  Shuffle(&a, &r1);
  Shuffle(&b, &r2);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace erlb
