#include <gtest/gtest.h>

#include <cmath>

#include "er/blocking.h"
#include "er/matcher.h"
#include "gen/product_gen.h"
#include "sim/calibrate.h"
#include "sim/er_sim.h"

namespace erlb {
namespace {

std::vector<er::Entity> Products(uint64_t n, uint64_t seed = 1) {
  gen::ProductConfig cfg;
  cfg.num_entities = n;
  cfg.seed = seed;
  auto e = gen::GenerateProducts(cfg);
  EXPECT_TRUE(e.ok());
  return *e;
}

TEST(CalibrateTest, ProducesPlausibleCosts) {
  auto entities = Products(2000, 3);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  sim::CalibrationOptions options;
  options.sample_pairs = 5000;
  auto cal = sim::CalibrateCostModel(entities, blocking, matcher, options);
  ASSERT_TRUE(cal.ok()) << cal.status().ToString();
  EXPECT_GT(cal->measured_pair_ns, 10.0);       // > 10 ns / comparison
  EXPECT_LT(cal->measured_pair_ns, 1000000.0);  // < 1 ms
  EXPECT_GT(cal->model.pair_cost_us, 0.0);
  EXPECT_EQ(cal->sampled_pairs, 5000u);
  // Cluster overheads inherited from the base model.
  EXPECT_DOUBLE_EQ(cal->model.task_overhead_ms,
                   options.base.task_overhead_ms);
}

TEST(CalibrateTest, SlotSlowdownScalesLinearly) {
  auto entities = Products(1500, 4);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  sim::CalibrationOptions fast, slow;
  fast.sample_pairs = slow.sample_pairs = 10000;
  fast.slot_slowdown = 1.0;
  slow.slot_slowdown = 10.0;
  slow.seed = fast.seed;
  // Wall-clock measurement: under a loaded parallel ctest run a single
  // calibration window can be inflated by scheduler contention, so allow
  // a few attempts before judging the ratio.
  double ratio = 0.0;
  for (int attempt = 0; attempt < 4; ++attempt) {
    auto a = sim::CalibrateCostModel(entities, blocking, matcher, fast);
    auto b = sim::CalibrateCostModel(entities, blocking, matcher, slow);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ratio = b->model.pair_cost_us / a->model.pair_cost_us;
    if (std::abs(ratio - 10.0) <= 5.0) break;
  }
  // Identical sampling; the model differs only by the slowdown factor
  // (timing noise allowed).
  EXPECT_NEAR(ratio, 10.0, 5.0);
}

TEST(CalibrateTest, CalibratedModelDrivesSimulation) {
  auto entities = Products(3000, 5);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  sim::CalibrationOptions options;
  options.sample_pairs = 2000;
  auto cal = sim::CalibrateCostModel(entities, blocking, matcher, options);
  ASSERT_TRUE(cal.ok());

  std::vector<std::vector<std::string>> keys(4);
  for (size_t i = 0; i < entities.size(); ++i) {
    keys[i % 4].push_back(blocking.Key(entities[i]));
  }
  auto bdm = bdm::Bdm::FromKeys(keys);
  ASSERT_TRUE(bdm.ok());
  sim::ClusterConfig cluster;
  cluster.num_nodes = 4;
  auto res = sim::SimulateEr(lb::StrategyKind::kBlockSplit, *bdm, 16,
                             cluster, cal->model);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->total_s, 0.0);
}

TEST(CalibrateTest, RejectsDegenerateInputs) {
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  sim::CalibrationOptions options;
  EXPECT_FALSE(
      sim::CalibrateCostModel({}, blocking, matcher, options).ok());
  // All-singleton blocks: nothing to sample.
  std::vector<er::Entity> singletons;
  for (uint64_t i = 0; i < 10; ++i) {
    er::Entity e;
    e.id = i + 1;
    e.fields = {std::string(1, static_cast<char>('a' + i)) + "xx" +
                std::to_string(i)};
    singletons.push_back(std::move(e));
  }
  auto r = sim::CalibrateCostModel(singletons, blocking, matcher, options);
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

}  // namespace
}  // namespace erlb
