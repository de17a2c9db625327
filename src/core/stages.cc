#include "core/stages.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "lb/basic.h"
#include "mr/task_scheduler.h"

namespace erlb {
namespace core {

// ---- CsvSourceStage -------------------------------------------------------

CsvSourceStage::CsvSourceStage(std::string name, std::string out_partitions,
                               std::string csv_path, er::CsvSchema schema,
                               uint32_t split_records)
    : Stage(std::move(name)),
      out_(std::move(out_partitions)),
      csv_path_(std::move(csv_path)),
      schema_(std::move(schema)),
      split_records_(split_records) {
  DeclareOutput(out_);
}

Status CsvSourceStage::Run(DataflowContext* ctx) {
  if (split_records_ == 0) {
    return Status::InvalidArgument("csv_split_records must be >= 1");
  }
  // This thread only cuts the file into splits of split_records_ lines
  // (each becomes one map partition); the pool parses them, a window of
  // 2 x workers splits at a time. Results are taken in file order, so
  // partitions, ids and the first bad row are those of a serial load.
  ERLB_ASSIGN_OR_RETURN(er::CsvSplitReader reader,
                        er::CsvSplitReader::Open(csv_path_, schema_));
  struct Slot {
    er::CsvSplit split;
    std::vector<er::EntityRef> entities;
    Status status;
  };
  const size_t workers = ctx->runner().num_workers();
  std::vector<Slot> window(2 * workers);
  const auto parse = [this, &window](uint32_t i) {
    Slot& slot = window[i];
    slot.entities.clear();
    slot.entities.reserve(slot.split.lines);
    slot.status = er::ParseCsvSplit(
        slot.split, schema_, [&slot](er::Entity&& e) {
          slot.entities.push_back(er::MakeEntityRef(std::move(e)));
        });
  };
  PartitionedEntities out;
  uint64_t total = 0;
  Status read_status;
  for (bool more = true; more;) {
    uint32_t filled = 0;
    while (filled < window.size()) {
      Result<bool> next = reader.Next(split_records_, &window[filled].split);
      if (!next.ok()) read_status = next.status();
      if (!next.ok() || !*next) {
        more = false;
        break;
      }
      ++filled;
    }
    std::vector<uint32_t> tasks(filled);
    std::iota(tasks.begin(), tasks.end(), 0u);
    mr::WorkStealingScheduler(std::move(tasks), workers)
        .Run(ctx->runner().shared_pool(), parse);
    for (uint32_t i = 0; i < filled; ++i) {
      ERLB_RETURN_NOT_OK(window[i].status);
      if (window[i].entities.empty()) continue;
      total += window[i].entities.size();
      out.partitions.push_back(std::move(window[i].entities));
    }
    // A read error ends the file after the splits before it, whose own
    // errors come first in file order.
    ERLB_RETURN_NOT_OK(read_status);
  }
  if (total == 0) {
    return Status::InvalidArgument("input is empty: " + csv_path_);
  }
  ctx->report().output_records = total;
  return ctx->Out(out_, Dataset(std::move(out)));
}

// ---- EntitySourceStage ----------------------------------------------------

EntitySourceStage::EntitySourceStage(std::string name,
                                     std::string out_partitions,
                                     const std::vector<er::Entity>* entities,
                                     uint32_t num_partitions, Filter filter,
                                     const std::vector<er::Entity>* s_entities,
                                     Filter s_filter)
    : Stage(std::move(name)),
      out_(std::move(out_partitions)),
      entities_(entities),
      num_partitions_(num_partitions),
      filter_(std::move(filter)),
      s_entities_(s_entities),
      s_filter_(std::move(s_filter)) {
  DeclareOutput(out_);
}

namespace {

/// The entities of one source side that `filter` admits, wrapped as refs
/// and, on a two-source stage, tagged with `tag`.
std::vector<er::EntityRef> Admit(const std::vector<er::Entity>& entities,
                                 const EntitySourceStage::Filter& filter,
                                 std::optional<er::Source> tag) {
  std::vector<er::EntityRef> admitted;
  admitted.reserve(filter == nullptr ? entities.size() : 0);
  for (const auto& e : entities) {
    if (filter != nullptr && !filter(e)) continue;
    er::Entity copy = e;
    if (tag.has_value()) copy.source = *tag;
    admitted.push_back(er::MakeEntityRef(std::move(copy)));
  }
  return admitted;
}

}  // namespace

Status EntitySourceStage::Run(DataflowContext* ctx) {
  if (num_partitions_ == 0) {
    return Status::InvalidArgument("num_map_tasks must be >= 1");
  }
  PartitionedEntities out;
  if (s_entities_ == nullptr) {
    std::vector<er::EntityRef> admitted =
        Admit(*entities_, filter_, std::nullopt);
    if (admitted.empty()) return Status::InvalidArgument("input is empty");
    out.partitions = er::SplitRefsIntoPartitions(admitted, num_partitions_);
  } else {
    std::vector<er::EntityRef> r = Admit(*entities_, filter_, er::Source::kR);
    std::vector<er::EntityRef> s =
        Admit(*s_entities_, s_filter_, er::Source::kS);
    if (r.empty() || s.empty()) {
      return Status::InvalidArgument("both sources must be non-empty");
    }
    // Map tasks split between R and S in proportion to their sizes.
    const uint32_t m = std::max(num_partitions_, 2u);
    const double total = static_cast<double>(r.size() + s.size());
    const uint32_t r_tasks = std::clamp<uint32_t>(
        static_cast<uint32_t>(m * (r.size() / total) + 0.5), 1, m - 1);
    out.partitions = er::SplitRefsIntoPartitions(r, r_tasks);
    out.sources.assign(r_tasks, er::Source::kR);
    for (auto& p : er::SplitRefsIntoPartitions(s, m - r_tasks)) {
      out.partitions.push_back(std::move(p));
      out.sources.push_back(er::Source::kS);
    }
  }
  uint64_t records = 0;
  for (const auto& p : out.partitions) records += p.size();
  ctx->report().output_records = records;
  return ctx->Out(out_, Dataset(std::move(out)));
}

// ---- BdmStage -------------------------------------------------------------

BdmStage::BdmStage(std::string name, std::string in_partitions,
                   std::string out_bdm, std::string out_annotated,
                   const er::BlockingFunction* blocking,
                   BdmStageOptions options)
    : Stage(std::move(name)),
      in_(std::move(in_partitions)),
      out_bdm_(std::move(out_bdm)),
      out_annotated_(std::move(out_annotated)),
      blocking_(blocking),
      options_(options) {
  DeclareInput(in_);
  DeclareOutput(out_bdm_);
  DeclareOutput(out_annotated_);
}

Status BdmStage::Run(DataflowContext* ctx) {
  ERLB_ASSIGN_OR_RETURN(const PartitionedEntities* input,
                        ctx->In<PartitionedEntities>(in_));
  bdm::BdmJobOptions options;
  options.missing_key_policy = options_.missing_key_policy;
  options.partition_sources = input->sources;
  ERLB_ASSIGN_OR_RETURN(
      bdm::BdmJobOutput out,
      bdm::RunBdmJob(input->partitions, *blocking_, options,
                     ctx->runner()));
  ctx->report().job = std::move(out.metrics);
  ctx->report().skipped_entities = out.skipped_entities;
  ctx->report().output_records = out.annotated->TotalRecords();
  ERLB_RETURN_NOT_OK(ctx->Out(out_bdm_, Dataset(std::move(out.bdm))));
  return ctx->Out(out_annotated_, Dataset(std::move(out.annotated)));
}

// ---- PlanStage ------------------------------------------------------------

PlanStage::PlanStage(std::string name, std::string in_bdm,
                     std::string out_plan, lb::StrategyKind strategy,
                     lb::MatchJobOptions options)
    : Stage(std::move(name)),
      in_(std::move(in_bdm)),
      out_(std::move(out_plan)),
      strategy_(strategy),
      options_(options) {
  DeclareInput(in_);
  DeclareOutput(out_);
}

Status PlanStage::Run(DataflowContext* ctx) {
  ERLB_ASSIGN_OR_RETURN(const bdm::Bdm* bdm, ctx->In<bdm::Bdm>(in_));
  auto strategy = lb::MakeStrategy(strategy_);
  ERLB_ASSIGN_OR_RETURN(lb::MatchPlan plan,
                        strategy->BuildPlan(*bdm, options_));
  auto shared = std::make_shared<const lb::MatchPlan>(std::move(plan));
  ctx->report().plan = shared;
  return ctx->Out(out_, Dataset(std::move(shared)));
}

// ---- MatchStage -----------------------------------------------------------

MatchStage::MatchStage(std::string name, std::string in_plan,
                       std::string in_annotated, std::string in_bdm,
                       std::string out_matches, const er::Matcher* matcher)
    : Stage(std::move(name)),
      in_plan_(std::move(in_plan)),
      in_annotated_(std::move(in_annotated)),
      in_bdm_(std::move(in_bdm)),
      out_(std::move(out_matches)),
      matcher_(matcher) {
  DeclareInput(in_plan_);
  DeclareInput(in_annotated_);
  DeclareInput(in_bdm_);
  DeclareOutput(out_);
}

Status MatchStage::Run(DataflowContext* ctx) {
  ERLB_ASSIGN_OR_RETURN(
      const std::shared_ptr<const lb::MatchPlan>* plan,
      ctx->In<std::shared_ptr<const lb::MatchPlan>>(in_plan_));
  ERLB_ASSIGN_OR_RETURN(
      const std::shared_ptr<bdm::AnnotatedStore>* annotated,
      ctx->In<std::shared_ptr<bdm::AnnotatedStore>>(in_annotated_));
  ERLB_ASSIGN_OR_RETURN(const bdm::Bdm* bdm, ctx->In<bdm::Bdm>(in_bdm_));
  auto strategy = lb::MakeStrategy((*plan)->strategy());
  ERLB_ASSIGN_OR_RETURN(
      lb::MatchJobOutput out,
      strategy->ExecutePlan(**plan, **annotated, *bdm, *matcher_,
                            ctx->runner()));
  ctx->report().job = std::move(out.metrics);
  ctx->report().comparisons = out.comparisons;
  ctx->report().plan = *plan;
  ctx->report().output_records = out.matches.size();
  return ctx->Out(out_, Dataset(std::move(out.matches)));
}

// ---- BasicMatchStage ------------------------------------------------------

BasicMatchStage::BasicMatchStage(std::string name, std::string in_partitions,
                                 std::string out_matches,
                                 const er::BlockingFunction* blocking,
                                 const er::Matcher* matcher,
                                 lb::MatchJobOptions options)
    : Stage(std::move(name)),
      in_(std::move(in_partitions)),
      out_(std::move(out_matches)),
      blocking_(blocking),
      matcher_(matcher),
      options_(options) {
  DeclareInput(in_);
  DeclareOutput(out_);
}

Status BasicMatchStage::Run(DataflowContext* ctx) {
  ERLB_ASSIGN_OR_RETURN(const PartitionedEntities* input,
                        ctx->In<PartitionedEntities>(in_));
  const std::vector<er::Source>* sources =
      input->sources.empty() ? nullptr : &input->sources;
  ERLB_ASSIGN_OR_RETURN(
      lb::MatchJobOutput out,
      lb::RunBasicSingleJob(input->partitions, *blocking_, *matcher_,
                            options_, ctx->runner(), sources));
  ctx->report().job = std::move(out.metrics);
  ctx->report().comparisons = out.comparisons;
  ctx->report().output_records = out.matches.size();
  return ctx->Out(out_, Dataset(std::move(out.matches)));
}

// ---- ClusterStage ---------------------------------------------------------

ClusterStage::ClusterStage(std::string name, std::string in_matches,
                           std::string out_clusters)
    : Stage(std::move(name)),
      in_(std::move(in_matches)),
      out_(std::move(out_clusters)) {
  DeclareInput(in_);
  DeclareOutput(out_);
}

Status ClusterStage::Run(DataflowContext* ctx) {
  ERLB_ASSIGN_OR_RETURN(const er::MatchResult* matches,
                        ctx->In<er::MatchResult>(in_));
  er::Clusters clusters = er::ClusterMatches(*matches);
  ctx->report().output_records = clusters.size();
  return ctx->Out(out_, Dataset(std::move(clusters)));
}

// ---- UnionMatchesStage ----------------------------------------------------

UnionMatchesStage::UnionMatchesStage(std::string name,
                                     std::vector<std::string> in_matches,
                                     std::string out_matches)
    : Stage(std::move(name)),
      ins_(std::move(in_matches)),
      out_(std::move(out_matches)) {
  for (const auto& in : ins_) DeclareInput(in);
  DeclareOutput(out_);
}

Status UnionMatchesStage::Run(DataflowContext* ctx) {
  er::MatchResult all;
  for (const auto& in : ins_) {
    ERLB_ASSIGN_OR_RETURN(const er::MatchResult* matches,
                          ctx->In<er::MatchResult>(in));
    all.Merge(*matches);
  }
  all.Canonicalize();
  ctx->report().output_records = all.size();
  return ctx->Out(out_, Dataset(std::move(all)));
}

// ---- Graph builders -------------------------------------------------------

Status AddStandardGraph(Dataflow* df, const StandardGraphOptions& options,
                        const er::BlockingFunction* blocking,
                        const er::Matcher* matcher,
                        const std::string& dataset_prefix) {
  // Reject bad job options before any stage exists: the BDM job would
  // otherwise run to completion before PlanStage refused them.
  const lb::MatchJobOptions match_options = options.MatchOptions();
  ERLB_RETURN_NOT_OK(lb::ValidateMatchJobOptions(match_options));
  auto named = [&dataset_prefix](const char* name) {
    return dataset_prefix + name;
  };

  if (options.strategy == lb::StrategyKind::kBasic) {
    // Single job, no BDM (Section III's straightforward approach).
    df->Emplace<BasicMatchStage>(named("match"), named(kDatasetPartitions),
                                 named(kDatasetMatches), blocking, matcher,
                                 match_options);
    return Status::OK();
  }

  BdmStageOptions bdm_options;
  bdm_options.missing_key_policy = options.missing_key_policy;
  df->Emplace<BdmStage>(named("bdm"), named(kDatasetPartitions),
                        named(kDatasetBdm), named(kDatasetAnnotated),
                        blocking, bdm_options);
  return AddServeGraph(df, options, matcher, dataset_prefix);
}

Status AddServeGraph(Dataflow* df, const StandardGraphOptions& options,
                     const er::Matcher* matcher,
                     const std::string& dataset_prefix) {
  const lb::MatchJobOptions match_options = options.MatchOptions();
  ERLB_RETURN_NOT_OK(lb::ValidateMatchJobOptions(match_options));
  auto named = [&dataset_prefix](const char* name) {
    return dataset_prefix + name;
  };
  df->Emplace<PlanStage>(named("plan"), named(kDatasetBdm),
                         named(kDatasetPlan), options.strategy,
                         match_options);
  df->Emplace<MatchStage>(named("match"), named(kDatasetPlan),
                          named(kDatasetAnnotated), named(kDatasetBdm),
                          named(kDatasetMatches), matcher);
  return Status::OK();
}

Status AddMissingKeyGraph(Dataflow* df, const StandardGraphOptions& options,
                          uint32_t num_map_tasks,
                          const std::vector<er::Entity>* entities,
                          const std::vector<er::Entity>* s_entities,
                          const er::BlockingFunction* blocking,
                          const er::Matcher* matcher,
                          const std::string& out_matches,
                          const std::string& name_prefix) {
  const EntitySourceStage::Filter keyed = [blocking](const er::Entity& e) {
    return !blocking->Key(e).empty();
  };
  const EntitySourceStage::Filter unkeyed = [blocking](const er::Entity& e) {
    return blocking->Key(e).empty();
  };
  const auto count_keyed = [&keyed](const std::vector<er::Entity>* side) {
    return static_cast<size_t>(
        std::count_if(side->begin(), side->end(), keyed));
  };
  const er::BlockingFunction* bottom =
      df->Own(std::make_unique<er::ConstantBlocking>());

  // One term of the decomposition: R side, optional S side, blocking.
  struct Term {
    bool present;
    EntitySourceStage::Filter r_filter;
    const std::vector<er::Entity>* s_side;
    EntitySourceStage::Filter s_filter;
    const er::BlockingFunction* blocking;
  };
  const size_t r_keyed = count_keyed(entities);
  const size_t r_unkeyed = entities->size() - r_keyed;
  std::vector<Term> terms;
  if (s_entities == nullptr) {
    terms = {{r_keyed > 0, keyed, nullptr, nullptr, blocking},
             {r_keyed > 0 && r_unkeyed > 0, keyed, entities, unkeyed, bottom},
             {r_unkeyed >= 2, unkeyed, nullptr, nullptr, bottom}};
  } else {
    const size_t s_keyed = count_keyed(s_entities);
    const size_t s_unkeyed = s_entities->size() - s_keyed;
    terms = {{r_keyed > 0 && s_keyed > 0, keyed, s_entities, keyed, blocking},
             {!entities->empty() && s_unkeyed > 0, nullptr, s_entities,
              unkeyed, bottom},
             {r_unkeyed > 0 && s_keyed > 0, unkeyed, s_entities, keyed,
              bottom}};
  }

  std::vector<std::string> term_outputs;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (!terms[i].present) continue;
    const std::string prefix = name_prefix + "term" + std::to_string(i) + "/";
    df->Emplace<EntitySourceStage>(prefix + "source",
                                   prefix + kDatasetPartitions, entities,
                                   num_map_tasks, terms[i].r_filter,
                                   terms[i].s_side, terms[i].s_filter);
    ERLB_RETURN_NOT_OK(
        AddStandardGraph(df, options, terms[i].blocking, matcher, prefix));
    term_outputs.push_back(prefix + kDatasetMatches);
  }
  df->Emplace<UnionMatchesStage>(name_prefix + "union",
                                 std::move(term_outputs), out_matches);
  return Status::OK();
}

}  // namespace core
}  // namespace erlb
