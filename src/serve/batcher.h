// Micro-batching of probe requests for the serving
// subsystem. Each probe-linkage run pays a fixed cost (planning,
// dataflow setup, one MR-shaped matching job) that dwarfs the marginal
// cost of one more probe record, so the daemon never runs a job per
// probe: requests queue here, and one drainer thread runs a single
// two-source linkage batch (ServeSession::ProbeBatch) once either
// threshold trips — enough probes queued, or the oldest request has
// waited long enough. Callers block until their batch completes and get
// back just their own slice of the batch result.
//
// Slicing is by probe id: a match pair belongs to the request that
// submitted the probe id it contains. Requests racing the same probe id
// into one batch would each receive that id's pairs — ids are the
// caller's namespace, the batcher does not invent its own.
#ifndef ERLB_SERVE_BATCHER_H_
#define ERLB_SERVE_BATCHER_H_

#include <cstdint>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/result.h"
#include "er/entity.h"
#include "er/match_result.h"
#include "serve/session.h"

namespace erlb {
namespace serve {

struct BatcherOptions {
  /// Drain as soon as this many probes are queued (size threshold).
  size_t max_batch_probes = 64;
  /// Drain when the oldest queued request has waited this long (time
  /// threshold), even if the batch is small.
  int64_t max_delay_ms = 5;
};

struct BatcherStats {
  uint64_t batches = 0;
  uint64_t probes = 0;
  uint64_t largest_batch = 0;
};

/// The probe queue + drainer thread in front of one ServeSession.
/// Thread-safe: any number of threads may call Probe concurrently; their
/// requests coalesce into shared linkage runs.
class Batcher {
 public:
  /// `session` is not owned and must outlive the batcher. The drainer
  /// thread starts immediately.
  Batcher(ServeSession* session, BatcherOptions options);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Queues `probes` and blocks until the batch containing them has run;
  /// returns the match pairs involving these probes' ids. Fails with
  /// FailedPrecondition after Stop.
  [[nodiscard]] Result<er::MatchResult> Probe(
      std::vector<er::Entity> probes);

  /// Drains pending requests, then stops the drainer thread. Idempotent;
  /// the destructor calls it.
  void Stop();

  [[nodiscard]] BatcherStats Stats() const;

 private:
  /// One caller's parked request; lives on the caller's stack while it
  /// waits.
  struct Request {
    std::vector<er::Entity> probes;
    er::MatchResult result;
    Status status;
    bool done = false;
  };

  void DrainLoop();
  /// Runs one coalesced batch (outside mu_) and publishes each request's
  /// slice.
  void RunBatch(const std::vector<Request*>& batch);

  ServeSession* session_;
  const BatcherOptions options_;

  mutable Mutex mu_;
  CondVar queue_cv_;  // drainer wakeup: new request or Stop
  CondVar done_cv_;   // caller wakeup: request completed
  std::vector<Request*> queue_ ERLB_GUARDED_BY(mu_);
  size_t queued_probes_ ERLB_GUARDED_BY(mu_) = 0;
  bool stop_ ERLB_GUARDED_BY(mu_) = false;
  BatcherStats stats_ ERLB_GUARDED_BY(mu_);

  std::thread drainer_;
};

}  // namespace serve
}  // namespace erlb

#endif  // ERLB_SERVE_BATCHER_H_
