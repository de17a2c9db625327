// Incremental BDM maintenance (Bdm::ApplyDelta) differential tests: a
// matrix maintained by deltas must be indistinguishable from one rebuilt
// from scratch over the mutated input — same content hash, same cells,
// and byte-identical plans from every strategy — and a rejected delta
// batch must leave the matrix untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bdm/bdm.h"
#include "common/random.h"
#include "lb/plan_io.h"
#include "lb/strategy.h"

namespace erlb {
namespace {

using bdm::Bdm;
using bdm::BdmDeltaEntry;
using bdm::BdmTriple;

/// Ground truth the deltas are checked against: (key, partition) -> count.
using Shadow = std::map<std::pair<std::string, uint32_t>, uint64_t>;

Bdm Rebuild(const Shadow& shadow, uint32_t num_partitions,
            const std::vector<er::Source>* sources) {
  std::vector<BdmTriple> triples;
  for (const auto& [cell, count] : shadow) {
    BdmTriple t;
    t.block_key = cell.first;
    t.partition = cell.second;
    t.count = count;
    t.source = sources != nullptr ? (*sources)[cell.second] : er::Source::kR;
    triples.push_back(std::move(t));
  }
  auto rebuilt = sources != nullptr
                     ? Bdm::FromTriplesTwoSource(triples, *sources)
                     : Bdm::FromTriples(triples, num_partitions);
  EXPECT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  return std::move(*rebuilt);
}

/// Structural equality via the public surface: the content hash covers
/// keys, cells, partition count, and source tags; the aggregates guard
/// the derived arrays on top.
void ExpectSameBdm(const Bdm& a, const Bdm& b) {
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  ASSERT_EQ(a.num_blocks(), b.num_blocks());
  EXPECT_EQ(a.num_partitions(), b.num_partitions());
  EXPECT_EQ(a.TotalEntities(), b.TotalEntities());
  EXPECT_EQ(a.TotalPairs(), b.TotalPairs());
  for (uint32_t k = 0; k < a.num_blocks(); ++k) {
    const auto va = a.view(k);
    const auto vb = b.view(k);
    EXPECT_EQ(va.key(), vb.key());
    ASSERT_EQ(va.cells().size(), vb.cells().size());
    for (size_t c = 0; c < va.cells().size(); ++c) {
      EXPECT_EQ(va.cells()[c], vb.cells()[c]);
    }
  }
}

void ExpectPlansByteIdentical(const Bdm& a, const Bdm& b) {
  lb::MatchJobOptions options;
  options.num_reduce_tasks = 7;
  for (auto kind :
       {lb::StrategyKind::kBasic, lb::StrategyKind::kBlockSplit,
        lb::StrategyKind::kPairRange}) {
    auto plan_a = lb::MakeStrategy(kind)->BuildPlan(a, options);
    auto plan_b = lb::MakeStrategy(kind)->BuildPlan(b, options);
    ASSERT_TRUE(plan_a.ok()) << plan_a.status().ToString();
    ASSERT_TRUE(plan_b.ok()) << plan_b.status().ToString();
    EXPECT_EQ(lb::MatchPlanToJson(*plan_a), lb::MatchPlanToJson(*plan_b))
        << lb::StrategyKindToName(kind);
  }
}

TEST(BdmDeltaTest, InsertIntoEmptyMatchesFromTriples) {
  auto bdm = Bdm::FromTriples({}, 3);
  ASSERT_TRUE(bdm.ok());
  std::vector<BdmDeltaEntry> deltas = {
      {"beta", 1, 2}, {"alpha", 0, 1}, {"beta", 1, 1}, {"gamma", 2, 4}};
  ASSERT_TRUE(bdm->ApplyDelta(deltas).ok());

  Shadow shadow = {{{"alpha", 0}, 1}, {{"beta", 1}, 3}, {{"gamma", 2}, 4}};
  ExpectSameBdm(*bdm, Rebuild(shadow, 3, nullptr));
}

TEST(BdmDeltaTest, RemovalDropsEmptyRowsAndCells) {
  Shadow shadow = {{{"a", 0}, 2}, {{"a", 1}, 1}, {{"b", 1}, 5}};
  Bdm bdm = Rebuild(shadow, 2, nullptr);
  // Empty block "a" entirely; shrink "b".
  ASSERT_TRUE(
      bdm.ApplyDelta({{"a", 0, -2}, {"a", 1, -1}, {"b", 1, -2}}).ok());
  Shadow expected = {{{"b", 1}, 3}};
  ExpectSameBdm(bdm, Rebuild(expected, 2, nullptr));
  EXPECT_EQ(bdm.num_blocks(), 1u);
}

TEST(BdmDeltaTest, ValidationFailureLeavesBdmUntouched) {
  Shadow shadow = {{{"a", 0}, 2}, {{"b", 1}, 1}};
  Bdm bdm = Rebuild(shadow, 2, nullptr);
  const uint64_t hash = bdm.ContentHash();

  // Underflow in the middle of an otherwise valid batch.
  auto underflow = bdm.ApplyDelta({{"a", 0, 1}, {"b", 1, -2}});
  EXPECT_TRUE(underflow.IsInvalidArgument()) << underflow.ToString();
  EXPECT_EQ(bdm.ContentHash(), hash);
  ExpectSameBdm(bdm, Rebuild(shadow, 2, nullptr));

  // Unknown block can only shrink below zero.
  EXPECT_TRUE(bdm.ApplyDelta({{"zzz", 0, -1}}).IsInvalidArgument());
  // Partition out of range.
  EXPECT_TRUE(bdm.ApplyDelta({{"a", 7, 1}}).IsInvalidArgument());
  EXPECT_EQ(bdm.ContentHash(), hash);
}

TEST(BdmDeltaTest, ZeroSumDeltasAreANoOp) {
  Shadow shadow = {{{"a", 0}, 2}};
  Bdm bdm = Rebuild(shadow, 2, nullptr);
  const uint64_t hash = bdm.ContentHash();
  ASSERT_TRUE(bdm.ApplyDelta({}).ok());
  ASSERT_TRUE(bdm.ApplyDelta({{"new", 1, 3}, {"new", 1, -3}}).ok());
  EXPECT_EQ(bdm.ContentHash(), hash);
}

TEST(BdmDeltaTest, ContentHashDistinguishesEqualShapes) {
  // Same block count, same cell counts, different keys: the shape-only
  // fingerprint of PR 3 could not tell these apart; the content hash must.
  Shadow x = {{{"aa", 0}, 2}, {{"bb", 1}, 2}};
  Shadow y = {{{"aa", 0}, 2}, {{"bc", 1}, 2}};
  EXPECT_NE(Rebuild(x, 2, nullptr).ContentHash(),
            Rebuild(y, 2, nullptr).ContentHash());
  // Same content, different partition layout.
  Shadow z = {{{"aa", 1}, 2}, {{"bb", 0}, 2}};
  EXPECT_NE(Rebuild(x, 2, nullptr).ContentHash(),
            Rebuild(z, 2, nullptr).ContentHash());
}

/// The randomized sweep: grow and shrink a matrix through many delta
/// batches, and after each batch require equality with a from-scratch
/// rebuild — including byte-identical plans from all three strategies at
/// checkpoints.
void RandomizedSweep(bool two_source) {
  const uint32_t m = two_source ? 5 : 4;
  std::vector<er::Source> sources(m, er::Source::kR);
  if (two_source) sources.back() = er::Source::kS;
  const std::vector<er::Source>* source_ptr =
      two_source ? &sources : nullptr;

  const std::vector<std::string> keys = {"ab", "cd", "ef", "gh", "ij",
                                         "kl", "mn", "op"};
  Pcg32 rng(two_source ? 1234 : 99);
  Shadow shadow;
  Bdm bdm = Rebuild(shadow, m, source_ptr);

  for (int round = 0; round < 40; ++round) {
    std::vector<BdmDeltaEntry> deltas;
    const int ops = 1 + static_cast<int>(rng.NextBounded(6));
    for (int i = 0; i < ops; ++i) {
      BdmDeltaEntry d;
      d.block_key = keys[rng.NextBounded(static_cast<uint32_t>(keys.size()))];
      d.partition = rng.NextBounded(static_cast<uint32_t>(m));
      const auto cell = std::make_pair(d.block_key, d.partition);
      const uint64_t have =
          shadow.count(cell) != 0 ? shadow.at(cell) : 0;
      if (have > 0 && rng.NextBounded(3) == 0) {
        d.delta = -static_cast<int64_t>(
            1 + rng.NextBounded(static_cast<uint32_t>(have)));
      } else {
        d.delta = static_cast<int64_t>(1 + rng.NextBounded(4));
      }
      // Keep the shadow consistent with the aggregated batch.
      const int64_t next = static_cast<int64_t>(have) + d.delta;
      if (next < 0) continue;  // would underflow after aggregation
      if (next == 0) {
        shadow.erase(cell);
      } else {
        shadow[cell] = static_cast<uint64_t>(next);
      }
      deltas.push_back(std::move(d));
    }
    ASSERT_TRUE(bdm.ApplyDelta(deltas).ok()) << "round " << round;
    Bdm rebuilt = Rebuild(shadow, m, source_ptr);
    ExpectSameBdm(bdm, rebuilt);
    if (round % 10 == 9 && bdm.TotalPairs() > 0) {
      ExpectPlansByteIdentical(bdm, rebuilt);
    }
  }
}

TEST(BdmDeltaTest, RandomizedDifferentialOneSource) {
  RandomizedSweep(/*two_source=*/false);
}

TEST(BdmDeltaTest, RandomizedDifferentialTwoSource) {
  RandomizedSweep(/*two_source=*/true);
}

}  // namespace
}  // namespace erlb
