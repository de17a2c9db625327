#include "serve/session.h"

#include <string>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "core/dataflow.h"
#include "core/stages.h"

namespace erlb {
namespace serve {

ServeSession::ServeSession(const er::BlockingFunction* blocking,
                           const er::Matcher* matcher,
                           SessionOptions options)
    : blocking_(blocking),
      matcher_(matcher),
      options_(options) {
  ERLB_CHECK(options_.num_corpus_partitions >= 1);
  // Partitions 0..m-1 hold the corpus (source R); partition m is the
  // reserved probe slot (source S), empty between batches.
  std::vector<er::Source> sources(options_.num_corpus_partitions + 1,
                                  er::Source::kR);
  sources.back() = er::Source::kS;
  auto empty = bdm::Bdm::FromTriplesTwoSource({}, sources);
  ERLB_CHECK(empty.ok());
  MutexLock lock(&mu_);
  bdm_ = std::move(*empty);
  annotated_ = std::make_shared<bdm::AnnotatedStore>(
      options_.num_corpus_partitions + 1);
}

uint32_t ServeSession::NextPartition() {
  return static_cast<uint32_t>(round_robin_++ %
                               options_.num_corpus_partitions);
}

Status ServeSession::Insert(const std::vector<er::Entity>& entities) {
  if (entities.empty()) return Status::OK();
  MutexLock lock(&mu_);
  // Validate the whole batch before touching anything.
  std::vector<std::string> keys;
  keys.reserve(entities.size());
  std::unordered_set<uint64_t> batch_ids;
  for (const auto& e : entities) {
    std::string key = blocking_->Key(e);
    if (key.empty()) {
      return Status::InvalidArgument("entity " + std::to_string(e.id) +
                                     " has no valid blocking key");
    }
    if (id_index_.find(e.id) != id_index_.end() ||
        !batch_ids.insert(e.id).second) {
      return Status::InvalidArgument("duplicate entity id " +
                                     std::to_string(e.id));
    }
    keys.push_back(std::move(key));
  }
  std::vector<bdm::BdmDeltaEntry> deltas;
  deltas.reserve(entities.size());
  for (size_t i = 0; i < entities.size(); ++i) {
    const uint32_t p = NextPartition();
    auto& file = annotated_->mutable_files()[p];
    id_index_.emplace(entities[i].id, std::make_pair(p, file.size()));
    er::Entity copy = entities[i];
    copy.source = er::Source::kR;
    file.emplace_back(keys[i], er::MakeEntityRef(std::move(copy)));
    deltas.push_back(bdm::BdmDeltaEntry{std::move(keys[i]), p, 1});
  }
  const Status applied = bdm_.ApplyDelta(deltas);
  ERLB_CHECK(applied.ok());  // positive deltas on valid partitions
  counters_.inserts += entities.size();
  return Status::OK();
}

Status ServeSession::Remove(const std::vector<uint64_t>& ids) {
  if (ids.empty()) return Status::OK();
  MutexLock lock(&mu_);
  std::unordered_set<uint64_t> batch_ids;
  for (uint64_t id : ids) {
    if (id_index_.find(id) == id_index_.end()) {
      return Status::NotFound("no corpus record with id " +
                              std::to_string(id));
    }
    if (!batch_ids.insert(id).second) {
      return Status::InvalidArgument("duplicate id " + std::to_string(id) +
                                     " in remove batch");
    }
  }
  std::vector<bdm::BdmDeltaEntry> deltas;
  deltas.reserve(ids.size());
  for (uint64_t id : ids) {
    const auto [p, slot] = id_index_.at(id);
    auto& file = annotated_->mutable_files()[p];
    deltas.push_back(bdm::BdmDeltaEntry{file[slot].first, p, -1});
    // Swap-remove; match results are canonical pair sets, so the order
    // change inside the partition file is unobservable.
    if (slot + 1 != file.size()) {
      file[slot] = std::move(file.back());
      id_index_[file[slot].second->id] = std::make_pair(p, slot);
    }
    file.pop_back();
    id_index_.erase(id);
  }
  const Status applied = bdm_.ApplyDelta(deltas);
  ERLB_CHECK(applied.ok());  // every decrement covered by a live record
  counters_.removes += ids.size();
  return Status::OK();
}

Result<er::MatchResult> ServeSession::RunMatchLocked() {
  core::DataflowOptions df_options;
  df_options.num_workers = options_.num_workers;
  core::Dataflow df(df_options);
  ERLB_RETURN_NOT_OK(
      df.AddInput(core::kDatasetBdm, core::Dataset(bdm_)));
  ERLB_RETURN_NOT_OK(
      df.AddInput(core::kDatasetAnnotated, core::Dataset(annotated_)));
  core::StandardGraphOptions graph;
  graph.strategy = options_.strategy;
  graph.num_reduce_tasks = options_.num_reduce_tasks;
  graph.assignment = options_.assignment;
  graph.sub_splits = options_.sub_splits;
  ERLB_RETURN_NOT_OK(core::AddServeGraph(&df, graph, matcher_));
  ERLB_RETURN_NOT_OK(df.Run().status());
  ERLB_ASSIGN_OR_RETURN(er::MatchResult matches,
                        df.Take<er::MatchResult>(core::kDatasetMatches));
  matches.Canonicalize();
  return matches;
}

Result<er::MatchResult> ServeSession::ProbeBatch(
    const std::vector<er::Entity>& probes) {
  MutexLock lock(&mu_);
  ++counters_.batches_run;

  std::vector<bdm::BdmDeltaEntry> deltas;
  std::vector<std::pair<std::string, er::EntityRef>> staged;
  for (const auto& p : probes) {
    std::string key = blocking_->Key(p);
    if (key.empty()) {
      ++counters_.probes_skipped;
      continue;
    }
    if (id_index_.find(p.id) != id_index_.end()) {
      return Status::InvalidArgument(
          "probe id " + std::to_string(p.id) +
          " collides with a corpus record id; matches could not be "
          "attributed");
    }
    er::Entity copy = p;
    copy.source = er::Source::kS;
    deltas.push_back(bdm::BdmDeltaEntry{key, ProbePartition(), 1});
    staged.emplace_back(std::move(key), er::MakeEntityRef(std::move(copy)));
  }
  counters_.probes_served += staged.size();
  if (staged.empty()) return er::MatchResult{};

  // Probe keys enter the BDM at partition m — only their rows are
  // re-merged — and the probes fill annotated file m.
  const Status applied = bdm_.ApplyDelta(deltas);
  ERLB_CHECK(applied.ok());
  auto& probe_file = annotated_->mutable_files()[ProbePartition()];
  ERLB_DCHECK(probe_file.empty());
  for (auto& [key, ref] : staged) {
    probe_file.emplace_back(std::move(key), std::move(ref));
  }

  Result<er::MatchResult> result = RunMatchLocked();

  // Revert unconditionally: the corpus must be byte-identical after the
  // batch whether or not the matching run succeeded.
  probe_file.clear();
  for (auto& d : deltas) d.delta = -d.delta;
  const Status reverted = bdm_.ApplyDelta(deltas);
  ERLB_CHECK(reverted.ok());  // undoing what was just applied
  return result;
}

SessionStats ServeSession::Stats() const {
  MutexLock lock(&mu_);
  SessionStats out = counters_;
  out.corpus_entities = id_index_.size();
  out.corpus_blocks = bdm_.num_blocks();
  return out;
}

bdm::Bdm ServeSession::BdmSnapshot() const {
  MutexLock lock(&mu_);
  return bdm_;
}

std::vector<er::Entity> ServeSession::CorpusSnapshot() const {
  MutexLock lock(&mu_);
  std::vector<er::Entity> out;
  out.reserve(id_index_.size());
  for (uint32_t p = 0; p < options_.num_corpus_partitions; ++p) {
    for (const auto& [key, ref] : annotated_->File(p)) {
      out.push_back(*ref);
    }
  }
  return out;
}

}  // namespace serve
}  // namespace erlb
