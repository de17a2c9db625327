#include "bdm/bdm_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/csv.h"
#include "paper_example.h"

namespace erlb {
namespace bdm {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(BdmIoTest, OneSourceRoundTrip) {
  auto bdm = Bdm::FromKeys({{"w", "w", "x", "y", "y", "z", "z"},
                            {"w", "w", "x", "y", "z", "z", "z"}});
  ASSERT_TRUE(bdm.ok());
  std::string path = TempPath("erlb_bdm.csv");
  ASSERT_TRUE(SaveBdmToCsv(path, *bdm).ok());
  auto loaded = LoadBdmFromCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_blocks(), bdm->num_blocks());
  EXPECT_EQ(loaded->num_partitions(), bdm->num_partitions());
  EXPECT_EQ(loaded->TotalPairs(), bdm->TotalPairs());
  for (uint32_t k = 0; k < bdm->num_blocks(); ++k) {
    EXPECT_EQ(loaded->BlockKey(k), bdm->BlockKey(k));
    for (uint32_t p = 0; p < bdm->num_partitions(); ++p) {
      EXPECT_EQ(loaded->Size(k, p), bdm->Size(k, p));
    }
  }
  std::remove(path.c_str());
}

TEST(BdmIoTest, TwoSourceRoundTripKeepsTags) {
  auto tags = testing_util::PaperTwoSourceTags();
  auto bdm = Bdm::FromKeys({{"w", "w", "z", "z", "y", "x"},
                            {"w", "w", "z", "z"},
                            {"z", "y", "y"}},
                           &tags);
  ASSERT_TRUE(bdm.ok());
  std::string path = TempPath("erlb_bdm2.csv");
  ASSERT_TRUE(SaveBdmToCsv(path, *bdm).ok());
  auto loaded = LoadBdmFromCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->two_source());
  EXPECT_EQ(loaded->TotalPairs(), 12u);
  EXPECT_EQ(loaded->PartitionSource(0), er::Source::kR);
  EXPECT_EQ(loaded->PartitionSource(2), er::Source::kS);
  EXPECT_EQ(loaded->view(3).size_s(), 3u);
  std::remove(path.c_str());
}

TEST(BdmIoTest, KeysWithDelimitersSurvive) {
  auto bdm = Bdm::FromKeys({{"a,b", "a,b", "c\"d", "c\"d"}});
  ASSERT_TRUE(bdm.ok());
  std::string path = TempPath("erlb_bdm3.csv");
  ASSERT_TRUE(SaveBdmToCsv(path, *bdm).ok());
  auto loaded = LoadBdmFromCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->HasBlock("a,b"));
  EXPECT_TRUE(loaded->HasBlock("c\"d"));
  std::remove(path.c_str());
}

TEST(BdmIoTest, RejectsNonBdmFile) {
  std::string path = TempPath("erlb_notbdm.csv");
  ASSERT_TRUE(WriteCsvFile(path, {{"id", "title"}, {"1", "x"}}).ok());
  EXPECT_TRUE(LoadBdmFromCsv(path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(BdmIoTest, MissingFileIsIOError) {
  EXPECT_EQ(LoadBdmFromCsv("/no/such/file.csv").status().code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace bdm
}  // namespace erlb
