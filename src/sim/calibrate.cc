#include "sim/calibrate.h"

#include <map>
#include <string>

#include "common/random.h"
#include "common/stopwatch.h"

namespace erlb {
namespace sim {

Result<Calibration> CalibrateCostModel(
    const std::vector<er::Entity>& entities,
    const er::BlockingFunction& blocking, const er::Matcher& matcher,
    const CalibrationOptions& options) {
  if (entities.size() < 2) {
    return Status::InvalidArgument("need at least two entities");
  }
  if (options.sample_pairs == 0) {
    return Status::InvalidArgument("sample_pairs must be > 0");
  }

  // Group a bounded prefix by blocking key (and measure key computation).
  std::map<std::string, std::vector<const er::Entity*>> blocks;
  const size_t scan = std::min<size_t>(entities.size(), 200000);
  Stopwatch key_watch;
  for (size_t i = 0; i < scan; ++i) {
    std::string key = blocking.Key(entities[i]);
    if (!key.empty()) blocks[key].push_back(&entities[i]);
  }
  double record_ns = key_watch.ElapsedNanos() / static_cast<double>(scan);

  std::vector<const std::vector<const er::Entity*>*> usable;
  for (const auto& [key, block] : blocks) {
    if (block.size() >= 2) usable.push_back(&block);
  }
  if (usable.empty()) {
    return Status::FailedPrecondition(
        "no block with >= 2 entities to sample pairs from");
  }

  // Sample within-block pairs, then time them the way the match job's
  // reducers run them: each sampled block's entities are sketched once
  // (Matcher::Sketch), and every pair goes through MatchSketched. The
  // sketching time is spread over all pairs of the sampled blocks, as a
  // reduce group spreads it over the pairs it compares.
  struct SampledPair {
    uint32_t block, a, b;
  };
  Pcg32 rng(options.seed);
  std::vector<SampledPair> samples(options.sample_pairs);
  for (SampledPair& s : samples) {
    s.block = rng.NextBounded(static_cast<uint32_t>(usable.size()));
    const uint32_t n = static_cast<uint32_t>(usable[s.block]->size());
    s.a = rng.NextBounded(n);
    s.b = rng.NextBounded(n);
    if (s.a == s.b) s.b = (s.b + 1) % n;
  }
  std::vector<std::vector<er::FieldSketch>> sketches(usable.size());
  uint64_t sketched_block_pairs = 0;
  Stopwatch sketch_watch;
  for (const SampledPair& s : samples) {
    std::vector<er::FieldSketch>& block_sketches = sketches[s.block];
    if (!block_sketches.empty()) continue;
    const std::vector<const er::Entity*>& block = *usable[s.block];
    block_sketches.reserve(block.size());
    for (const er::Entity* e : block) {
      block_sketches.push_back(matcher.Sketch(*e));
    }
    sketched_block_pairs += block.size() * (block.size() - 1) / 2;
  }
  const double sketch_ns = static_cast<double>(sketch_watch.ElapsedNanos());

  volatile uint64_t sink = 0;  // keep the matcher call alive
  Stopwatch pair_watch;
  for (const SampledPair& s : samples) {
    const std::vector<const er::Entity*>& block = *usable[s.block];
    const std::vector<er::FieldSketch>& block_sketches = sketches[s.block];
    const bool match =
        matcher.MatchSketched(*block[s.a], block_sketches[s.a], *block[s.b],
                              block_sketches[s.b]);
    // Plain assignment: compound assignment to a volatile is deprecated
    // in C++20 (-Wvolatile).
    sink = sink + (match ? 1 : 0);
  }
  const double pair_ns =
      pair_watch.ElapsedNanos() / static_cast<double>(options.sample_pairs) +
      sketch_ns / static_cast<double>(sketched_block_pairs);
  (void)sink;

  Calibration cal;
  cal.measured_pair_ns = pair_ns;
  cal.measured_record_ns = record_ns;
  cal.sampled_pairs = options.sample_pairs;
  cal.model = options.base;
  cal.model.pair_cost_us = pair_ns / 1000.0 * options.slot_slowdown;
  cal.model.record_cost_us = record_ns / 1000.0 * options.slot_slowdown;
  return cal;
}

}  // namespace sim
}  // namespace erlb
