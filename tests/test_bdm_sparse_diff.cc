// Differential tests for the sparse (CSR-backed) BDM: every accessor and
// every plan built from it must agree with an in-test map-backed
// reference model — the representation the sparse layout replaced.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "bdm/bdm.h"
#include "lb/plan.h"
#include "lb/plan_io.h"
#include "lb/strategy.h"

namespace erlb {
namespace bdm {
namespace {

/// The previous representation, rebuilt independently: block key →
/// partition → count, with dense derived quantities computed by the old
/// dense-scan algorithms.
struct ReferenceBdm {
  std::map<std::string, std::map<uint32_t, uint64_t>> cells;
  std::vector<er::Source> sources;  // empty = one-source
  uint32_t m = 0;

  uint64_t Size(const std::string& key, uint32_t p) const {
    auto row = cells.find(key);
    if (row == cells.end()) return 0;
    auto cell = row->second.find(p);
    return cell == row->second.end() ? 0 : cell->second;
  }

  uint64_t SourceSize(const std::string& key, er::Source src) const {
    uint64_t n = 0;
    for (uint32_t p = 0; p < m; ++p) {
      er::Source ps = sources.empty() ? er::Source::kR : sources[p];
      if (ps == src) n += Size(key, p);
    }
    return n;
  }

  uint64_t BlockSize(const std::string& key) const {
    uint64_t n = 0;
    for (uint32_t p = 0; p < m; ++p) n += Size(key, p);
    return n;
  }

  uint64_t Pairs(const std::string& key) const {
    if (sources.empty()) {
      const uint64_t n = BlockSize(key);
      return n * (n - 1) / 2;
    }
    return SourceSize(key, er::Source::kR) *
           SourceSize(key, er::Source::kS);
  }

  uint64_t EntityIndexOffset(const std::string& key, uint32_t p) const {
    er::Source src = sources.empty() ? er::Source::kR : sources[p];
    uint64_t n = 0;
    for (uint32_t q = 0; q < p; ++q) {
      er::Source qs = sources.empty() ? er::Source::kR : sources[q];
      if (qs == src) n += Size(key, q);
    }
    return n;
  }

  std::vector<BdmTriple> ToTriples() const {
    std::vector<BdmTriple> triples;
    for (const auto& [key, row] : cells) {
      for (const auto& [p, count] : row) {
        BdmTriple t;
        t.block_key = key;
        t.source = sources.empty() ? er::Source::kR : sources[p];
        t.partition = p;
        t.count = count;
        triples.push_back(std::move(t));
      }
    }
    return triples;
  }
};

/// Deterministic skewed key sets: partition p holds entities whose keys
/// mix p and i so rows have distinct sparsity patterns (some blocks
/// appear in one partition only, some everywhere, sizes vary).
std::vector<std::vector<std::string>> MakeKeys(uint32_t m,
                                               uint32_t per_partition) {
  std::vector<std::vector<std::string>> keys(m);
  for (uint32_t p = 0; p < m; ++p) {
    for (uint32_t i = 0; i < per_partition; ++i) {
      keys[p].push_back("blk" + std::to_string((i * 7 + p * 13) % 23));
    }
    // A block unique to this partition.
    keys[p].push_back("only" + std::to_string(p));
  }
  return keys;
}

ReferenceBdm MakeReference(const std::vector<std::vector<std::string>>& keys,
                           const std::vector<er::Source>* sources) {
  ReferenceBdm ref;
  ref.m = static_cast<uint32_t>(keys.size());
  if (sources != nullptr) ref.sources = *sources;
  for (uint32_t p = 0; p < ref.m; ++p) {
    for (const std::string& k : keys[p]) ++ref.cells[k][p];
  }
  return ref;
}

void ExpectMatchesReference(const Bdm& bdm, const ReferenceBdm& ref) {
  ASSERT_EQ(bdm.num_blocks(), ref.cells.size());
  ASSERT_EQ(bdm.num_partitions(), ref.m);
  EXPECT_EQ(bdm.two_source(), !ref.sources.empty());

  // Dictionary order = the sorted-map iteration order of the old layout.
  uint64_t total_entities = 0;
  uint64_t total_pairs = 0;
  uint32_t k = 0;
  for (const auto& [key, row] : ref.cells) {
    EXPECT_EQ(bdm.BlockKey(k), key);
    const Bdm::BlockView block = bdm.view(k);
    EXPECT_EQ(block.key(), key);
    EXPECT_EQ(block.size(), ref.BlockSize(key)) << key;
    EXPECT_EQ(block.pairs(), ref.Pairs(key)) << key;
    EXPECT_EQ(block.pair_offset(), total_pairs) << key;
    EXPECT_EQ(block.size_r(), ref.SourceSize(key, er::Source::kR)) << key;
    if (bdm.two_source()) {
      EXPECT_EQ(block.size_s(), ref.SourceSize(key, er::Source::kS))
          << key;
    }
    for (uint32_t p = 0; p < ref.m; ++p) {
      EXPECT_EQ(bdm.Size(k, p), ref.Size(key, p)) << key << " p=" << p;
      EXPECT_EQ(bdm.EntityIndexOffset(k, p), ref.EntityIndexOffset(key, p))
          << key << " p=" << p;
    }
    total_entities += ref.BlockSize(key);
    total_pairs += ref.Pairs(key);
    ++k;
  }
  EXPECT_EQ(bdm.TotalEntities(), total_entities);
  EXPECT_EQ(bdm.TotalPairs(), total_pairs);
}

void ExpectBlockViewsAgree(const Bdm& bdm, const ReferenceBdm& ref) {
  uint32_t visited = 0;
  bdm.ForEachBlock([&](const Bdm::BlockView& block) {
    const uint32_t k = block.index();
    EXPECT_EQ(k, visited);
    EXPECT_EQ(block.key(), bdm.BlockKey(k));
    // Cells are exactly the reference row's nonzeros, ascending.
    const auto& row = ref.cells.at(std::string(block.key()));
    ASSERT_EQ(block.cells().size(), row.size());
    auto it = row.begin();
    uint64_t cell_sum = 0;
    for (const BdmCell& cell : block.cells()) {
      EXPECT_EQ(cell.partition, it->first);
      EXPECT_EQ(cell.count, it->second);
      cell_sum += cell.count;
      ++it;
    }
    EXPECT_EQ(cell_sum, block.size());
    ++visited;
  });
  EXPECT_EQ(visited, bdm.num_blocks());
}

TEST(BdmSparseDiffTest, OneSourceAccessorsMatchReference) {
  auto keys = MakeKeys(5, 40);
  auto ref = MakeReference(keys, nullptr);
  auto bdm = Bdm::FromKeys(keys);
  ASSERT_TRUE(bdm.ok()) << bdm.status().ToString();
  ExpectMatchesReference(*bdm, ref);
  ExpectBlockViewsAgree(*bdm, ref);
}

TEST(BdmSparseDiffTest, TwoSourceAccessorsMatchReference) {
  auto keys = MakeKeys(6, 30);
  std::vector<er::Source> sources = {er::Source::kR, er::Source::kS,
                                     er::Source::kR, er::Source::kS,
                                     er::Source::kS, er::Source::kR};
  auto ref = MakeReference(keys, &sources);
  auto bdm = Bdm::FromKeys(keys, &sources);
  ASSERT_TRUE(bdm.ok()) << bdm.status().ToString();
  ExpectMatchesReference(*bdm, ref);
  ExpectBlockViewsAgree(*bdm, ref);
}

// Plans depend only on the BDM's logical content: building the same
// matrix through FromKeys, FromTriples over the reference model, and a
// ToTriples round-trip must serialize to byte-identical plan JSON with
// equal fingerprints, for every strategy and both source modes.
void ExpectPlansRepresentationIndependent(
    const std::vector<std::vector<std::string>>& keys,
    const std::vector<er::Source>* sources) {
  auto ref = MakeReference(keys, sources);
  auto from_keys = Bdm::FromKeys(keys, sources);
  ASSERT_TRUE(from_keys.ok()) << from_keys.status().ToString();
  Result<Bdm> from_triples =
      sources == nullptr
          ? Bdm::FromTriples(ref.ToTriples(), ref.m)
          : Bdm::FromTriplesTwoSource(ref.ToTriples(), *sources);
  ASSERT_TRUE(from_triples.ok()) << from_triples.status().ToString();
  Result<Bdm> round_trip =
      sources == nullptr
          ? Bdm::FromTriples(from_keys->ToTriples(), ref.m)
          : Bdm::FromTriplesTwoSource(from_keys->ToTriples(), *sources);
  ASSERT_TRUE(round_trip.ok()) << round_trip.status().ToString();

  EXPECT_EQ(lb::BdmFingerprint::Of(*from_keys),
            lb::BdmFingerprint::Of(*from_triples));
  EXPECT_EQ(lb::BdmFingerprint::Of(*from_keys),
            lb::BdmFingerprint::Of(*round_trip));

  lb::MatchJobOptions options;
  options.num_reduce_tasks = 7;
  for (lb::StrategyKind kind : lb::AllStrategyKinds()) {
    auto strategy = lb::MakeStrategy(kind);
    auto plan_a = strategy->BuildPlan(*from_keys, options);
    auto plan_b = strategy->BuildPlan(*from_triples, options);
    auto plan_c = strategy->BuildPlan(*round_trip, options);
    ASSERT_TRUE(plan_a.ok()) << plan_a.status().ToString();
    ASSERT_TRUE(plan_b.ok()) << plan_b.status().ToString();
    ASSERT_TRUE(plan_c.ok()) << plan_c.status().ToString();
    const std::string json_a = lb::MatchPlanToJson(*plan_a);
    EXPECT_EQ(json_a, lb::MatchPlanToJson(*plan_b))
        << lb::StrategyKindToName(kind);
    EXPECT_EQ(json_a, lb::MatchPlanToJson(*plan_c))
        << lb::StrategyKindToName(kind);
  }
}

TEST(BdmSparseDiffTest, OneSourcePlansRepresentationIndependent) {
  ExpectPlansRepresentationIndependent(MakeKeys(5, 40), nullptr);
}

TEST(BdmSparseDiffTest, TwoSourcePlansRepresentationIndependent) {
  std::vector<er::Source> sources = {er::Source::kR, er::Source::kS,
                                     er::Source::kS, er::Source::kR,
                                     er::Source::kS};
  ExpectPlansRepresentationIndependent(MakeKeys(5, 40), &sources);
}

TEST(BdmSparseDiffTest, BlockKeyCheckedBounds) {
  auto bdm = Bdm::FromKeys({{"a", "b"}, {"b", "c"}});
  ASSERT_TRUE(bdm.ok());
  auto ok = bdm->BlockKeyChecked(2);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "c");
  auto bad = bdm->BlockKeyChecked(3);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsOutOfRange()) << bad.status().ToString();
}

}  // namespace
}  // namespace bdm
}  // namespace erlb
