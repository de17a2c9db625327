// ServeSession: the resident corpus behind the erlb_serve daemon — the
// paper's batch pipeline re-shaped for serving. A session holds, in
// memory and for the life of the process:
//
//   * the corpus entities, keyed by blocking key, as the annotated store
//     Π' that MR Job 2 normally reads from DFS (partitions 0..m-1,
//     source R), plus one reserved always-empty partition m (source S)
//     that each probe batch transiently occupies;
//   * the CSR BDM over those m+1 partitions, maintained incrementally
//     (bdm::Bdm::ApplyDelta) as records are inserted/deleted and as
//     probe batches come and go — never rebuilt from scratch.
//
// A probe batch is answered as a two-source linkage run: the probe keys
// enter the BDM at partition m (touched rows only), the probes fill
// annotated file m, a serve dataflow (core::AddServeGraph — plan + match
// over the resident datasets) produces the matches, and the deltas are
// reverted. As in the paper, the plan is a function of the BDM the batch
// just produced, so every batch plans afresh. Corpus mutations
// (Insert/Remove) apply the same deltas to partitions 0..m-1.
//
// One annotated erlb::Mutex serializes the session; concurrency
// comes from micro-batching (serve/batcher.h): many client probes ride
// one session run, and the matching job inside parallelizes across the
// session's worker pool.
#ifndef ERLB_SERVE_SESSION_H_
#define ERLB_SERVE_SESSION_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bdm/bdm_job.h"
#include "common/annotations.h"
#include "common/mutex.h"
#include "common/result.h"
#include "er/blocking.h"
#include "er/entity.h"
#include "er/match_result.h"
#include "er/matcher.h"
#include "lb/plan.h"

namespace erlb {
namespace serve {

struct SessionOptions {
  /// m — corpus partitions (map tasks of the matching job read one each).
  uint32_t num_corpus_partitions = 4;
  /// Planning strategy for probe linkage.
  lb::StrategyKind strategy = lb::StrategyKind::kBlockSplit;
  /// r for the matching job.
  uint32_t num_reduce_tasks = 8;
  lb::TaskAssignment assignment = lb::TaskAssignment::kGreedyLpt;
  uint32_t sub_splits = 1;
  /// Worker threads of the per-batch matching dataflow (0 = hardware).
  uint32_t num_workers = 0;
};

/// Counters of the plan cache the daemon once had. Always zero: a probe
/// batch stages its probes into the BDM, so no two batches share a plan
/// and the cache was removed. The fields stay so the stats frame keeps
/// its layout and existing readers of these counters keep working.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  uint64_t entries = 0;
};

/// Counters of one session's lifetime plus a point-in-time corpus shape.
struct SessionStats {
  uint64_t corpus_entities = 0;
  uint64_t corpus_blocks = 0;
  uint64_t probes_served = 0;
  uint64_t batches_run = 0;
  uint64_t probes_skipped = 0;  // no valid blocking key
  uint64_t inserts = 0;
  uint64_t removes = 0;
  PlanCacheStats plan_cache;  // always zero, see PlanCacheStats
};

/// The resident corpus + probe/admin surface. Thread-safe; every public
/// method may be called from any thread (the daemon calls ProbeBatch from
/// the batcher's drainer and admin methods from connection threads).
class ServeSession {
 public:
  /// `blocking` and `matcher` are not owned and must outlive the session.
  ServeSession(const er::BlockingFunction* blocking,
               const er::Matcher* matcher, SessionOptions options);

  /// Inserts `entities` into the corpus (source tag forced to R).
  /// All-or-nothing: a duplicate id (vs the corpus or within the batch)
  /// or an entity without a valid blocking key fails the whole call with
  /// InvalidArgument and changes nothing.
  [[nodiscard]] Status Insert(const std::vector<er::Entity>& entities);

  /// Removes the records with `ids`. All-or-nothing: any unknown id is
  /// NotFound and changes nothing.
  [[nodiscard]] Status Remove(const std::vector<uint64_t>& ids);

  /// Links `probes` against the corpus in one two-source matching run;
  /// returns every (corpus id, probe id) pair the matcher accepts (pairs
  /// are canonical min/max id order). Probes whose blocking key is empty
  /// match nothing (counted in stats). Probe ids must not collide with
  /// corpus ids — the match result could not be attributed otherwise.
  /// The corpus is byte-identical before and after (differential-tested).
  [[nodiscard]] Result<er::MatchResult> ProbeBatch(
      const std::vector<er::Entity>& probes);

  [[nodiscard]] SessionStats Stats() const;

  const SessionOptions& options() const { return options_; }

  /// Copies of the resident state, for differential tests (the live
  /// members stay behind the session mutex).
  [[nodiscard]] bdm::Bdm BdmSnapshot() const;
  [[nodiscard]] std::vector<er::Entity> CorpusSnapshot() const;

 private:
  /// Index partition of the next insert (round-robin keeps partitions
  /// near-equal, mirroring HDFS splits of an append-ordered file).
  uint32_t NextPartition() ERLB_REQUIRES(mu_);

  /// The plan + match dataflow (core::AddServeGraph) over the resident
  /// BDM/annotated datasets, with the probe rows in place.
  [[nodiscard]] Result<er::MatchResult> RunMatchLocked() ERLB_REQUIRES(mu_);

  /// The reserved probe partition index (= m).
  uint32_t ProbePartition() const {
    return options_.num_corpus_partitions;
  }

  const er::BlockingFunction* blocking_;
  const er::Matcher* matcher_;
  const SessionOptions options_;

  mutable Mutex mu_;
  bdm::Bdm bdm_ ERLB_GUARDED_BY(mu_);  // m+1 partitions, sources R…R,S
  std::shared_ptr<bdm::AnnotatedStore> annotated_ ERLB_GUARDED_BY(mu_);
  /// id -> (partition, slot in annotated file) for O(1) deletes.
  std::unordered_map<uint64_t, std::pair<uint32_t, size_t>> id_index_
      ERLB_GUARDED_BY(mu_);
  uint64_t round_robin_ ERLB_GUARDED_BY(mu_) = 0;
  SessionStats counters_ ERLB_GUARDED_BY(mu_);
};

}  // namespace serve
}  // namespace erlb

#endif  // ERLB_SERVE_SESSION_H_
