#include "bdm/bdm.h"

#include <gtest/gtest.h>

#include "paper_example.h"

namespace erlb {
namespace bdm {
namespace {

using testing_util::PaperExamplePartitions;
using testing_util::PaperTwoSourcePartitions;
using testing_util::PaperTwoSourceTags;

std::vector<std::vector<std::string>> PaperExampleKeys() {
  // Π0: w w x y y z z ; Π1: w w x y z z z  (Figure 3)
  return {{"w", "w", "x", "y", "y", "z", "z"},
          {"w", "w", "x", "y", "z", "z", "z"}};
}

TEST(BdmTest, PaperExampleBlockIndexOrder) {
  auto bdm = Bdm::FromKeys(PaperExampleKeys());
  ASSERT_TRUE(bdm.ok());
  // "we assign the first block (key w) to block index position 0"
  EXPECT_EQ(bdm->num_blocks(), 4u);
  EXPECT_EQ(bdm->BlockKey(0), "w");
  EXPECT_EQ(bdm->BlockKey(1), "x");
  EXPECT_EQ(bdm->BlockKey(2), "y");
  EXPECT_EQ(bdm->BlockKey(3), "z");
}

TEST(BdmTest, PaperExampleCellCounts) {
  auto bdm = Bdm::FromKeys(PaperExampleKeys());
  ASSERT_TRUE(bdm.ok());
  EXPECT_EQ(bdm->num_partitions(), 2u);
  // Figure 4's matrix rows.
  EXPECT_EQ(bdm->Size(0, 0), 2u);  // w
  EXPECT_EQ(bdm->Size(0, 1), 2u);
  EXPECT_EQ(bdm->Size(1, 0), 1u);  // x
  EXPECT_EQ(bdm->Size(1, 1), 1u);
  EXPECT_EQ(bdm->Size(2, 0), 2u);  // y
  EXPECT_EQ(bdm->Size(2, 1), 1u);
  EXPECT_EQ(bdm->Size(3, 0), 2u);  // z: "[z,0,2]"
  EXPECT_EQ(bdm->Size(3, 1), 3u);  // z: "[z,1,3]"
}

TEST(BdmTest, PaperExampleBlockSizesAndPairs) {
  auto bdm = Bdm::FromKeys(PaperExampleKeys());
  ASSERT_TRUE(bdm.ok());
  EXPECT_EQ(bdm->view(0).size(), 4u);
  EXPECT_EQ(bdm->view(1).size(), 2u);
  EXPECT_EQ(bdm->view(2).size(), 3u);
  EXPECT_EQ(bdm->view(3).size(), 5u);
  EXPECT_EQ(bdm->view(0).pairs(), 6u);
  EXPECT_EQ(bdm->view(1).pairs(), 1u);
  EXPECT_EQ(bdm->view(2).pairs(), 3u);
  EXPECT_EQ(bdm->view(3).pairs(), 10u);
  // "the largest block with key z entails 50% of all comparisons"
  EXPECT_EQ(bdm->TotalPairs(), 20u);
  EXPECT_EQ(bdm->LargestBlock(), 3u);
  EXPECT_EQ(bdm->TotalEntities(), 14u);
}

TEST(BdmTest, PaperExamplePairOffsets) {
  auto bdm = Bdm::FromKeys(PaperExampleKeys());
  ASSERT_TRUE(bdm.ok());
  EXPECT_EQ(bdm->view(0).pair_offset(), 0u);
  EXPECT_EQ(bdm->view(1).pair_offset(), 6u);
  EXPECT_EQ(bdm->view(2).pair_offset(), 7u);
  EXPECT_EQ(bdm->view(3).pair_offset(), 10u);
  EXPECT_EQ(bdm->TotalPairs(), 20u);
}

TEST(BdmTest, PaperExampleEntityIndexOffset) {
  auto bdm = Bdm::FromKeys(PaperExampleKeys());
  ASSERT_TRUE(bdm.ok());
  // "M is the first entity of block Φ3 in partition Π1. Since the BDM
  // indicates that there are two other entities in Φ3 in the preceding
  // partition Π0, M ... is thus assigned entity index 2."
  EXPECT_EQ(bdm->EntityIndexOffset(3, 1), 2u);
  EXPECT_EQ(bdm->EntityIndexOffset(3, 0), 0u);
  EXPECT_EQ(bdm->EntityIndexOffset(0, 1), 2u);
}

TEST(BdmTest, BlockIndexLookup) {
  auto bdm = Bdm::FromKeys(PaperExampleKeys());
  ASSERT_TRUE(bdm.ok());
  auto idx = bdm->BlockIndex("z");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 3u);
  EXPECT_TRUE(bdm->BlockIndex("nope").status().IsNotFound());
}

TEST(BdmTest, FromTriplesMatchesFromKeys) {
  auto from_keys = Bdm::FromKeys(PaperExampleKeys());
  ASSERT_TRUE(from_keys.ok());
  auto triples = from_keys->ToTriples();
  auto from_triples = Bdm::FromTriples(triples, 2);
  ASSERT_TRUE(from_triples.ok());
  EXPECT_EQ(from_triples->TotalPairs(), 20u);
  for (uint32_t k = 0; k < 4; ++k) {
    for (uint32_t p = 0; p < 2; ++p) {
      EXPECT_EQ(from_triples->Size(k, p), from_keys->Size(k, p));
    }
  }
}

TEST(BdmTest, FromTriplesRejectsDuplicates) {
  std::vector<BdmTriple> triples;
  triples.push_back({"w", er::Source::kR, 0, 2});
  triples.push_back({"w", er::Source::kR, 0, 3});
  EXPECT_EQ(Bdm::FromTriples(triples, 1).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(BdmTest, FromTriplesRejectsBadPartition) {
  std::vector<BdmTriple> triples;
  triples.push_back({"w", er::Source::kR, 5, 2});
  EXPECT_TRUE(Bdm::FromTriples(triples, 2).status().IsOutOfRange());
}

TEST(BdmTest, FromTriplesRejectsZeroPartitions) {
  EXPECT_TRUE(Bdm::FromTriples({}, 0).status().IsInvalidArgument());
}

TEST(BdmTest, EmptyTriplesYieldEmptyBdm) {
  auto bdm = Bdm::FromTriples({}, 3);
  ASSERT_TRUE(bdm.ok());
  EXPECT_EQ(bdm->num_blocks(), 0u);
  EXPECT_EQ(bdm->TotalPairs(), 0u);
  EXPECT_EQ(bdm->TotalEntities(), 0u);
}

TEST(BdmTest, SingletonBlockHasNoPairs) {
  auto bdm = Bdm::FromKeys({{"a", "b", "b"}});
  ASSERT_TRUE(bdm.ok());
  EXPECT_EQ(bdm->view(0).pairs(), 0u);
  EXPECT_EQ(bdm->view(1).pairs(), 1u);
}

// ---- two-source ------------------------------------------------------

std::vector<std::vector<std::string>> TwoSourceKeys() {
  // Matches PaperTwoSourcePartitions().
  return {{"w", "w", "z", "z", "y", "x"},
          {"w", "w", "z", "z"},
          {"z", "y", "y"}};
}

TEST(BdmTwoSourceTest, PerSourceSizes) {
  auto tags = testing_util::PaperTwoSourceTags();
  auto bdm = Bdm::FromKeys(TwoSourceKeys(), &tags);
  ASSERT_TRUE(bdm.ok());
  EXPECT_TRUE(bdm->two_source());
  ASSERT_EQ(bdm->num_blocks(), 4u);  // w x y z
  EXPECT_EQ(bdm->view(0).size_r(), 2u);  // w
  EXPECT_EQ(bdm->view(0).size_s(), 2u);
  EXPECT_EQ(bdm->view(1).size_r(), 1u);  // x
  EXPECT_EQ(bdm->view(1).size_s(), 0u);
  EXPECT_EQ(bdm->view(2).size_r(), 1u);  // y
  EXPECT_EQ(bdm->view(2).size_s(), 2u);
  EXPECT_EQ(bdm->view(3).size_r(), 2u);  // z
  EXPECT_EQ(bdm->view(3).size_s(), 3u);
}

TEST(BdmTwoSourceTest, CrossProductPairCounts) {
  auto tags = testing_util::PaperTwoSourceTags();
  auto bdm = Bdm::FromKeys(TwoSourceKeys(), &tags);
  ASSERT_TRUE(bdm.ok());
  EXPECT_EQ(bdm->view(0).pairs(), 4u);  // 2*2
  EXPECT_EQ(bdm->view(1).pairs(), 0u);  // no S entities -> dropped
  EXPECT_EQ(bdm->view(2).pairs(), 2u);  // 1*2
  EXPECT_EQ(bdm->view(3).pairs(), 6u);  // 2*3
  // "The BDM indicates 12 overall pairs"
  EXPECT_EQ(bdm->TotalPairs(), 12u);
}

TEST(BdmTwoSourceTest, PairOffsetsSkipEmptyBlocks) {
  auto tags = testing_util::PaperTwoSourceTags();
  auto bdm = Bdm::FromKeys(TwoSourceKeys(), &tags);
  ASSERT_TRUE(bdm.ok());
  EXPECT_EQ(bdm->view(0).pair_offset(), 0u);
  EXPECT_EQ(bdm->view(1).pair_offset(), 4u);
  EXPECT_EQ(bdm->view(2).pair_offset(), 4u);  // x contributes nothing
  EXPECT_EQ(bdm->view(3).pair_offset(), 6u);
}

TEST(BdmTwoSourceTest, EntityEnumerationIsPerSource) {
  auto tags = testing_util::PaperTwoSourceTags();
  auto bdm = Bdm::FromKeys(TwoSourceKeys(), &tags);
  ASSERT_TRUE(bdm.ok());
  // Block z (index 3): S entities in Π1 start at 0, in Π2 at 2; the R
  // entity enumeration in Π0 is independent.
  EXPECT_EQ(bdm->EntityIndexOffset(3, 0), 0u);
  EXPECT_EQ(bdm->EntityIndexOffset(3, 1), 0u);
  EXPECT_EQ(bdm->EntityIndexOffset(3, 2), 2u);
  EXPECT_EQ(bdm->PartitionSource(0), er::Source::kR);
  EXPECT_EQ(bdm->PartitionSource(2), er::Source::kS);
}

TEST(BdmTwoSourceTest, SourceTagMismatchRejected) {
  std::vector<BdmTriple> triples;
  triples.push_back({"w", er::Source::kS, 0, 2});  // Π0 is tagged R
  std::vector<er::Source> tags{er::Source::kR, er::Source::kS};
  EXPECT_TRUE(
      Bdm::FromTriplesTwoSource(triples, tags).status().IsInvalidArgument());
}

}  // namespace
}  // namespace bdm
}  // namespace erlb
