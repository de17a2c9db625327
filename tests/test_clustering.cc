#include "er/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "er/entity.h"
#include "er/matcher.h"
#include "er/similarity.h"

namespace erlb {
namespace er {
namespace {

TEST(ClusterMatchesTest, SelfPairsAreSingletonsAndDropped) {
  MatchResult m;
  m.Add(1, 1);
  m.Add(2, 2);
  EXPECT_TRUE(ClusterMatches(m).empty());  // 1 and 2 stay apart
  m.Add(5, 5);
  m.Add(5, 6);
  auto clusters = ClusterMatches(m);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], (std::vector<uint64_t>{5, 6}));
}

TEST(ClusterMatchesTest, ChainOfUnionsIsOneCluster) {
  MatchResult m;
  m.Add(1, 2);
  m.Add(2, 3);
  m.Add(4, 5);
  auto clusters = ClusterMatches(m);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], (std::vector<uint64_t>{1, 2, 3}));  // 4 apart
  EXPECT_EQ(clusters[1], (std::vector<uint64_t>{4, 5}));
}

TEST(ClusterMatchesTest, ReclusteringIsIdempotent) {
  MatchResult m;
  m.Add(20, 30);
  m.Add(10, 20);
  const Clusters once = ClusterMatches(m);
  ASSERT_EQ(once.size(), 1u);
  EXPECT_EQ(once[0], (std::vector<uint64_t>{10, 20, 30}));
  EXPECT_EQ(ClusterMatches(ClustersToPairs(once)), once);
}

TEST(ClusterMatchesTest, LongChainInBothOrders) {
  for (bool reversed : {false, true}) {
    MatchResult m;
    for (uint64_t i = 0; i + 1 < 10000; ++i) {
      const uint64_t a = reversed ? 9998 - i : i;
      m.Add(a, a + 1);
    }
    auto clusters = ClusterMatches(m);
    ASSERT_EQ(clusters.size(), 1u);
    ASSERT_EQ(clusters[0].size(), 10000u);
    for (uint64_t i = 0; i < 10000; ++i) EXPECT_EQ(clusters[0][i], i);
  }
}

/// The components as the former map-based clustering computed them: a
/// breadth-first search per unvisited id, members sorted, clusters sorted
/// by their smallest member.
Clusters ReferenceClusters(const MatchResult& m) {
  std::map<uint64_t, std::vector<uint64_t>> adjacent;
  for (const auto& p : m.pairs()) {
    adjacent[p.first].push_back(p.second);
    adjacent[p.second].push_back(p.first);
  }
  std::set<uint64_t> seen;
  Clusters clusters;
  for (const auto& [start, unused] : adjacent) {
    if (!seen.insert(start).second) continue;
    std::vector<uint64_t> members{start};
    for (size_t i = 0; i < members.size(); ++i) {
      for (uint64_t next : adjacent[members[i]]) {
        if (seen.insert(next).second) members.push_back(next);
      }
    }
    std::sort(members.begin(), members.end());
    if (members.size() >= 2) clusters.push_back(std::move(members));
  }
  std::sort(clusters.begin(), clusters.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
  return clusters;
}

TEST(ClusterMatchesTest, EqualsReferenceOnSparseRandomIds) {
  Pcg32 rng(101);
  for (int iter = 0; iter < 50; ++iter) {
    // Sparse 64-bit ids (high bits set) in shuffled pair order, with
    // repeated and self pairs.
    const uint32_t n = 1 + rng.NextBounded(200);
    std::vector<uint64_t> ids(n);
    for (auto& id : ids) {
      id = (uint64_t{rng.NextBounded(1u << 20)} << 40) | rng.NextBounded(n);
    }
    MatchResult m;
    const uint32_t edges = rng.NextBounded(2 * n);
    for (uint32_t e = 0; e < edges; ++e) {
      m.Add(ids[rng.NextBounded(n)], ids[rng.NextBounded(n)]);
    }
    EXPECT_EQ(ClusterMatches(m), ReferenceClusters(m)) << "iter " << iter;
  }
}

TEST(ClusterMatchesTest, TransitiveClosure) {
  MatchResult m;
  m.Add(1, 2);
  m.Add(2, 3);  // 1-2-3 one cluster even though (1,3) never matched
  m.Add(7, 9);
  auto clusters = ClusterMatches(m);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(clusters[1], (std::vector<uint64_t>{7, 9}));
}

TEST(ClusterMatchesTest, EmptyResult) {
  EXPECT_TRUE(ClusterMatches(MatchResult()).empty());
}

TEST(ClusterMatchesTest, DuplicatePairsIgnored) {
  MatchResult m;
  m.Add(1, 2);
  m.Add(2, 1);
  m.Add(1, 2);
  auto clusters = ClusterMatches(m);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], (std::vector<uint64_t>{1, 2}));
}

TEST(ClusterMatchesTest, ClustersSortedBySmallestMember) {
  MatchResult m;
  m.Add(100, 200);
  m.Add(5, 6);
  m.Add(50, 60);
  auto clusters = ClusterMatches(m);
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0][0], 5u);
  EXPECT_EQ(clusters[1][0], 50u);
  EXPECT_EQ(clusters[2][0], 100u);
}

TEST(ClustersToPairsTest, ExpandsWithinClusterPairs) {
  Clusters clusters{{1, 2, 3}, {7, 9}};
  auto pairs = ClustersToPairs(clusters);
  EXPECT_EQ(pairs.size(), 4u);  // 3 + 1
  MatchResult expected;
  expected.Add(1, 2);
  expected.Add(1, 3);
  expected.Add(2, 3);
  expected.Add(7, 9);
  EXPECT_TRUE(pairs.SameAs(expected));
}

TEST(ClusteringPropertyTest, ClosureIsIdempotentOnRandomGraphs) {
  Pcg32 rng(97);
  for (int iter = 0; iter < 20; ++iter) {
    MatchResult m;
    uint32_t n = 30 + rng.NextBounded(50);
    uint32_t edges = rng.NextBounded(2 * n);
    for (uint32_t e = 0; e < edges; ++e) {
      uint64_t a = 1 + rng.NextBounded(n);
      uint64_t b = 1 + rng.NextBounded(n);
      if (a != b) m.Add(a, b);
    }
    auto closed = ClustersToPairs(ClusterMatches(m));
    auto reclosed = ClustersToPairs(ClusterMatches(closed));
    EXPECT_TRUE(closed.SameAs(reclosed));
    // Closure is a superset of the input pairs.
    MatchResult canon = m;
    canon.Canonicalize();
    EXPECT_GE(closed.size(), canon.size());
  }
}

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
  // Classic example: MARTHA vs MARHTA = 0.944...
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.944444, 1e-5);
  // DWAYNE vs DUANE = 0.822...
  EXPECT_NEAR(JaroSimilarity("dwayne", "duane"), 0.822222, 1e-5);
}

TEST(JaroWinklerTest, PrefixBoost) {
  double jaro = JaroSimilarity("martha", "marhta");
  double jw = JaroWinklerSimilarity("martha", "marhta");
  // 3 leading chars in common: jw = jaro + 3*0.1*(1-jaro) = 0.961...
  EXPECT_NEAR(jw, jaro + 3 * 0.1 * (1 - jaro), 1e-12);
  EXPECT_NEAR(jw, 0.961111, 1e-5);
}

TEST(JaroWinklerTest, BoundedAndSymmetric) {
  Pcg32 rng(55);
  auto random_str = [&](size_t max_len) {
    std::string s;
    size_t len = rng.NextBounded(static_cast<uint32_t>(max_len + 1));
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.NextBounded(5));
    }
    return s;
  };
  for (int i = 0; i < 300; ++i) {
    std::string a = random_str(12), b = random_str(12);
    double jw = JaroWinklerSimilarity(a, b);
    EXPECT_GE(jw, 0.0);
    EXPECT_LE(jw, 1.0);
    EXPECT_DOUBLE_EQ(jw, JaroWinklerSimilarity(b, a));
    EXPECT_GE(jw, JaroSimilarity(a, b) - 1e-12);  // boost never hurts
  }
}

TEST(JaroWinklerMatcherTest, MatchesNearNames) {
  Entity a, b, c;
  a.id = 1;
  a.fields = {"jonathan smith"};
  b.id = 2;
  b.fields = {"jonathon smith"};
  c.id = 3;
  c.fields = {"maria garcia"};
  JaroWinklerMatcher m(0.9);
  EXPECT_TRUE(m.Match(a, b));
  EXPECT_FALSE(m.Match(a, c));
  EXPECT_NE(m.Describe().find("jaro-winkler"), std::string::npos);
}

}  // namespace
}  // namespace er
}  // namespace erlb
