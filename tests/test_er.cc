#include <gtest/gtest.h>

#include "er/blocking.h"
#include "er/entity.h"
#include "er/evaluation.h"
#include "er/match_result.h"
#include "er/matcher.h"

namespace erlb {
namespace er {
namespace {

Entity MakeEntity(uint64_t id, std::string title,
                  uint64_t cluster = 0) {
  Entity e;
  e.id = id;
  e.fields = {std::move(title)};
  e.cluster_id = cluster;
  return e;
}

TEST(EntityTest, TitleIsFirstField) {
  Entity e = MakeEntity(1, "canon eos");
  EXPECT_EQ(e.title(), "canon eos");
}

TEST(PartitionTest, SplitsEvenly) {
  std::vector<Entity> entities;
  for (uint64_t i = 0; i < 10; ++i) entities.push_back(MakeEntity(i, "t"));
  auto parts = SplitIntoPartitions(entities, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 4u);
  EXPECT_EQ(parts[1].size(), 3u);
  EXPECT_EQ(parts[2].size(), 3u);
}

TEST(PartitionTest, PreservesOrder) {
  std::vector<Entity> entities;
  for (uint64_t i = 0; i < 7; ++i) {
    entities.push_back(MakeEntity(i + 1, "t"));
  }
  auto parts = SplitIntoPartitions(entities, 2);
  auto flat = FlattenPartitions(parts);
  ASSERT_EQ(flat.size(), 7u);
  for (uint64_t i = 0; i < 7; ++i) EXPECT_EQ(flat[i]->id, i + 1);
}

TEST(PartitionTest, MorePartitionsThanEntities) {
  std::vector<Entity> entities{MakeEntity(1, "a"), MakeEntity(2, "b")};
  auto parts = SplitIntoPartitions(entities, 5);
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0].size(), 1u);
  EXPECT_EQ(parts[1].size(), 1u);
  EXPECT_EQ(parts[2].size(), 0u);
}

TEST(BlockingTest, PrefixBlocking) {
  PrefixBlocking b(0, 3);
  EXPECT_EQ(b.Key(MakeEntity(1, "Canon EOS")), "can");
  EXPECT_EQ(b.Key(MakeEntity(2, "  nikon d90")), "nik");  // trims
  EXPECT_EQ(b.Key(MakeEntity(3, "ab")), "ab");
  EXPECT_EQ(b.Key(MakeEntity(4, "")), "");
  EXPECT_NE(b.Describe(), "");
}

TEST(BlockingTest, PrefixBlockingMissingField) {
  PrefixBlocking b(3, 3);
  EXPECT_EQ(b.Key(MakeEntity(1, "title")), "");
}

TEST(BlockingTest, AttributeBlocking) {
  Entity e = MakeEntity(1, "title");
  e.fields.push_back("  ACME Corp ");
  AttributeBlocking b(1);
  EXPECT_EQ(b.Key(e), "acme corp");
}

TEST(BlockingTest, ConstantBlockingIsBottom) {
  ConstantBlocking b;
  EXPECT_EQ(b.Key(MakeEntity(1, "x")), kBottomKey);
  EXPECT_EQ(b.Key(MakeEntity(2, "y")), kBottomKey);
}

TEST(BlockingTest, LambdaBlocking) {
  LambdaBlocking b([](const Entity& e) { return e.title().substr(0, 1); },
                   "first-char");
  EXPECT_EQ(b.Key(MakeEntity(1, "xyz")), "x");
  EXPECT_EQ(b.Describe(), "first-char");
}

TEST(MatcherTest, EditDistanceMatcherThreshold) {
  EditDistanceMatcher m(0.8);
  // 1 edit over 11 characters: similarity ~0.909.
  EXPECT_TRUE(m.Match(MakeEntity(1, "canon eos 5"),
                      MakeEntity(2, "canon eos 6")));
  EXPECT_FALSE(m.Match(MakeEntity(1, "canon eos 5"),
                       MakeEntity(2, "sony walkman")));
  EXPECT_DOUBLE_EQ(m.threshold(), 0.8);
}

TEST(MatcherTest, MatchIsSymmetric) {
  EditDistanceMatcher m(0.8);
  Entity a = MakeEntity(1, "digital camera xy-100");
  Entity b = MakeEntity(2, "digital camera xy-200");
  EXPECT_EQ(m.Match(a, b), m.Match(b, a));
  EXPECT_DOUBLE_EQ(m.Similarity(a, b), m.Similarity(b, a));
}

TEST(MatcherTest, LambdaMatcher) {
  LambdaMatcher m(
      [](const Entity& a, const Entity& b) { return a.id + b.id == 10; },
      "sum-10");
  EXPECT_TRUE(m.Match(MakeEntity(4, ""), MakeEntity(6, "")));
  EXPECT_FALSE(m.Match(MakeEntity(4, ""), MakeEntity(7, "")));
  EXPECT_EQ(m.Describe(), "sum-10");
}

TEST(MatchPairTest, CanonicalOrder) {
  MatchPair p(9, 3);
  EXPECT_EQ(p.first, 3u);
  EXPECT_EQ(p.second, 9u);
  EXPECT_EQ(p, MatchPair(3, 9));
}

TEST(MatchResultTest, CanonicalizeSortsAndDedupes) {
  MatchResult r;
  r.Add(5, 2);
  r.Add(2, 5);
  r.Add(1, 9);
  r.Canonicalize();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.pairs()[0], MatchPair(1, 9));
  EXPECT_EQ(r.pairs()[1], MatchPair(2, 5));
}

TEST(MatchResultTest, SameAsIgnoresOrderAndDuplicates) {
  MatchResult a, b;
  a.Add(1, 2);
  a.Add(3, 4);
  b.Add(4, 3);
  b.Add(2, 1);
  b.Add(1, 2);
  EXPECT_TRUE(a.SameAs(b));
  b.Add(5, 6);
  EXPECT_FALSE(a.SameAs(b));
}

TEST(MatchResultTest, MergeCombines) {
  MatchResult a, b;
  a.Add(1, 2);
  b.Add(3, 4);
  a.Merge(b);
  EXPECT_EQ(a.size(), 2u);
}

TEST(EvaluationTest, PerfectResult) {
  std::vector<Entity> entities{
      MakeEntity(1, "a", 100), MakeEntity(2, "a2", 100),
      MakeEntity(3, "b", 0)};
  MatchResult r;
  r.Add(1, 2);
  auto q = EvaluateMatches(entities, r);
  EXPECT_EQ(q.true_positives, 1u);
  EXPECT_EQ(q.false_positives, 0u);
  EXPECT_EQ(q.false_negatives, 0u);
  EXPECT_DOUBLE_EQ(q.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(q.Recall(), 1.0);
  EXPECT_DOUBLE_EQ(q.F1(), 1.0);
}

TEST(EvaluationTest, FalsePositivesAndNegatives) {
  std::vector<Entity> entities{
      MakeEntity(1, "a", 100), MakeEntity(2, "a2", 100),
      MakeEntity(3, "a3", 100), MakeEntity(4, "b", 0)};
  // Truth: (1,2),(1,3),(2,3). Found: (1,2) and a wrong (1,4).
  MatchResult r;
  r.Add(1, 2);
  r.Add(1, 4);
  auto q = EvaluateMatches(entities, r);
  EXPECT_EQ(q.true_positives, 1u);
  EXPECT_EQ(q.false_positives, 1u);
  EXPECT_EQ(q.false_negatives, 2u);
  EXPECT_DOUBLE_EQ(q.Precision(), 0.5);
  EXPECT_NEAR(q.Recall(), 1.0 / 3, 1e-12);
}

TEST(EvaluationTest, EmptyEverything) {
  auto q = EvaluateMatches({}, MatchResult());
  EXPECT_DOUBLE_EQ(q.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(q.Recall(), 1.0);
}

}  // namespace
}  // namespace er
}  // namespace erlb
