// Appendix I (Figures 15-17): matching two sources R and S. Reconstructs
// the appendix's running example (12 cross pairs, block z split into
// match tasks 3.0x1 / 3.0x2, PairRange ranges of 4 pairs), executes both
// strategies for real, and runs a larger synthetic R-S linkage comparing
// all strategies' balance.
#include <cstdio>

#include "bench_common.h"
#include "bdm/bdm_job.h"
#include "common/string_util.h"
#include "core/dataflow.h"
#include "core/reference.h"
#include "core/stages.h"
#include "core/table.h"
#include "lb/block_split_plan.h"

namespace {

using namespace erlb;

er::Entity Make(uint64_t id, const char* name, const char* block,
                er::Source src) {
  er::Entity e;
  e.id = id;
  e.fields = {name, block};
  e.source = src;
  return e;
}

void AppendixExample() {
  std::printf("--- Appendix example (Figures 15-17 structure) ---\n");
  er::Partitions parts(3);
  auto R = [](uint64_t id, const char* n, const char* b) {
    return er::MakeEntityRef(Make(id, n, b, er::Source::kR));
  };
  auto S = [](uint64_t id, const char* n, const char* b) {
    return er::MakeEntityRef(Make(id, n, b, er::Source::kS));
  };
  parts[0] = {R(1, "A", "w"), R(2, "B", "w"), R(3, "C", "z"),
              R(4, "D", "z"), R(5, "E", "y"), R(6, "F", "x")};
  parts[1] = {S(101, "G", "w"), S(102, "H", "w"), S(103, "I", "z"),
              S(104, "J", "z")};
  parts[2] = {S(105, "K", "z"), S(106, "L", "y"), S(107, "M", "y")};
  std::vector<er::Source> tags{er::Source::kR, er::Source::kS,
                               er::Source::kS};

  mr::JobRunner runner(4);
  er::AttributeBlocking blocking(1);
  bdm::BdmJobOptions bdm_options;
  bdm_options.partition_sources = tags;
  auto bdm_out = bdm::RunBdmJob(parts, blocking, bdm_options, runner);
  ERLB_CHECK(bdm_out.ok());
  const auto& bdm = bdm_out->bdm;
  std::printf("total cross pairs P = %llu (paper: 12)\n",
              static_cast<unsigned long long>(bdm.TotalPairs()));

  auto plan = lb::BlockSplitPlan::Build(bdm, 3);
  ERLB_CHECK(plan.ok());
  std::printf("BlockSplit match tasks (block.pi x pj -> reduce task):\n");
  for (const auto& t : plan->tasks()) {
    std::printf("  %u.%u x %u  comparisons=%llu -> reduce %u\n", t.block,
                t.pi, t.pj, static_cast<unsigned long long>(t.comparisons),
                t.reduce_task);
  }

  er::LambdaMatcher all(
      [](const er::Entity&, const er::Entity&) { return true; }, "all");
  lb::MatchJobOptions options;
  options.num_reduce_tasks = 3;
  for (auto kind :
       {lb::StrategyKind::kBlockSplit, lb::StrategyKind::kPairRange}) {
    auto strategy = lb::MakeStrategy(kind);
    auto match_plan = strategy->BuildPlan(bdm, options);
    ERLB_CHECK(match_plan.ok());
    auto out = strategy->ExecutePlan(*match_plan, *bdm_out->annotated, bdm,
                                     all, runner);
    ERLB_CHECK(out.ok());
    std::printf("%s: comparisons=%lld matches=%zu map KV pairs=%lld\n",
                lb::StrategyKindToName(kind),
                static_cast<long long>(out->comparisons),
                out->matches.size(),
                static_cast<long long>(
                    out->metrics.TotalMapOutputPairs()));
  }
}

void SyntheticLinkage() {
  std::printf("\n--- Synthetic R-S linkage (products x offers) ---\n");
  gen::ProductConfig cfg_r, cfg_s;
  cfg_r.num_entities = 6000;
  cfg_r.seed = 101;
  cfg_s.num_entities = 9000;
  cfg_s.seed = 202;
  auto r_ents = gen::GenerateProducts(cfg_r);
  auto s_ents = gen::GenerateProducts(cfg_s);
  ERLB_CHECK(r_ents.ok());
  ERLB_CHECK(s_ents.ok());
  for (auto& e : *s_ents) e.id += 10000000;

  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.85);
  auto reference =
      core::ReferenceLink(*r_ents, *s_ents, blocking, matcher);

  core::TextTable table;
  table.SetHeader({"strategy", "matches", "comparisons", "map KV pairs",
                   "wall s", "== reference"});
  for (auto kind : lb::AllStrategyKinds()) {
    core::StandardGraphOptions graph;
    graph.strategy = kind;
    graph.num_reduce_tasks = 24;
    core::Dataflow df;
    df.Emplace<core::EntitySourceStage>("source", core::kDatasetPartitions,
                                        &*r_ents, 6, nullptr, &*s_ents);
    ERLB_CHECK(core::AddStandardGraph(&df, graph, &blocking, &matcher).ok());
    auto report = df.Run();
    ERLB_CHECK(report.ok());
    const er::MatchResult& matches =
        **df.Get<er::MatchResult>(core::kDatasetMatches);
    table.AddRow({lb::StrategyKindToName(kind),
                  FormatWithCommas(matches.size()),
                  FormatWithCommas(report->TotalComparisons()),
                  FormatWithCommas(
                      report->Find("match")->job->TotalMapOutputPairs()),
                  bench::Fmt(report->total_seconds, 2),
                  matches.SameAs(reference) ? "yes" : "NO"});
  }
  table.Print();
}

}  // namespace

int main() {
  std::printf("=== Appendix I: matching two sources ===\n\n");
  AppendixExample();
  SyntheticLinkage();
  return 0;
}
