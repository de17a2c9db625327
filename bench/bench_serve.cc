// Serving-path micro benchmark: the two costs the erlb_serve daemon
// exists to amortize, each as a before/after ratio gated by
// tools/bench_compare.py against the committed BENCH_serve.json:
//
//   probe/batch_vs_per_probe  one linkage run per probe vs one per batch
//   maintain/delta_vs_rebuild FromKeys rebuild vs Bdm::ApplyDelta
//
// All ratios are "old / new" with the serving-path variant as "new", so
// higher is better and a regression means the resident path lost its
// advantage.
//
//   $ ./bench_serve [--json <path>] [--reps N] [--min-rep-ms N]
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bdm/bdm.h"
#include "bench_json.h"
#include "common/logging.h"
#include "common/random.h"
#include "er/blocking.h"
#include "er/matcher.h"
#include "gen/perturb.h"
#include "gen/product_gen.h"
#include "serve/session.h"

using namespace erlb;

int main(int argc, char** argv) {
  bench::MicroBench harness("bench_serve");
  if (!harness.ParseArgs(argc, argv)) return 1;

  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);

  // Resident corpus: 1200 clean products over 4 partitions.
  serve::SessionOptions session_options;
  session_options.num_corpus_partitions = 4;
  session_options.num_reduce_tasks = 8;
  session_options.num_workers = 2;
  serve::ServeSession session(&blocking, &matcher, session_options);
  gen::ProductConfig gen_config;
  gen_config.num_entities = 1200;
  gen_config.duplicate_fraction = 0.0;
  gen_config.seed = 51;
  auto corpus = gen::GenerateProducts(gen_config);
  ERLB_CHECK(corpus.ok());
  ERLB_CHECK(session.Insert(*corpus).ok());

  // A fixed batch of 8 probes: perturbed corpus titles, so they block
  // with (and mostly match) resident records.
  Pcg32 rng(77);
  std::vector<er::Entity> probes;
  for (int i = 0; i < 8; ++i) {
    er::Entity probe;
    probe.id = 900000000ull + static_cast<uint64_t>(i);
    probe.fields = {
        gen::Perturb((*corpus)[static_cast<size_t>(i) * 97].title(), 1, 2,
                     &rng)};
    probes.push_back(std::move(probe));
  }

  // ---- micro-batching: one linkage run per probe vs one per batch ----
  // Interleaved call by call, so the gated ratio does not follow host load.
  harness.RunInterleaved(
      {"probe/per_probe", "probe/batched"}, 1,
      [&] {
        for (const auto& probe : probes) {
          auto result = session.ProbeBatch({probe});
          ERLB_CHECK(result.ok());
        }
      },
      [&] {
        auto result = session.ProbeBatch(probes);
        ERLB_CHECK(result.ok());
      });
  harness.Speedup("probe/batch_vs_per_probe", "probe/per_probe",
                  "probe/batched");

  // ---- incremental maintenance: rebuild vs ApplyDelta ----
  // A bigger synthetic matrix (Zipf keys over 6 partitions) so the
  // rebuild pays dictionary sorting and CSR construction at real size.
  const uint32_t m = 6;
  ZipfSampler zipf(800, 1.0);
  Pcg32 key_rng(13);
  std::vector<std::vector<std::string>> keys(m);
  for (uint32_t p = 0; p < m; ++p) {
    for (int i = 0; i < 4000; ++i) {
      // Appending to an lvalue sidesteps GCC 12's -Wrestrict false
      // positive on `"lit" + std::to_string(x)`.
      std::string key = "k";
      key += std::to_string(zipf.Sample(&key_rng));
      keys[p].push_back(std::move(key));
    }
  }
  auto base = bdm::Bdm::FromKeys(keys);
  ERLB_CHECK(base.ok());
  // The mutation: one small insert batch (16 records).
  std::vector<bdm::BdmDeltaEntry> deltas;
  for (int i = 0; i < 16; ++i) {
    std::string key = "k";  // lvalue append, as above
    key += std::to_string(zipf.Sample(&key_rng));
    deltas.push_back(
        bdm::BdmDeltaEntry{std::move(key), key_rng.NextBounded(m), 1});
  }
  auto mutated_keys = keys;
  for (const auto& d : deltas) {
    mutated_keys[d.partition].push_back(d.block_key);
  }
  harness.Run("maintain/rebuild", [&] {
    auto rebuilt = bdm::Bdm::FromKeys(mutated_keys);
    ERLB_CHECK(rebuilt.ok());
  });
  // Apply + revert keeps the matrix stable across iterations; the delta
  // path is charged twice and still has to win big.
  std::vector<bdm::BdmDeltaEntry> reverts = deltas;
  for (auto& d : reverts) d.delta = -d.delta;
  harness.Run("maintain/apply_delta", [&] {
    ERLB_CHECK(base->ApplyDelta(deltas).ok());
    ERLB_CHECK(base->ApplyDelta(reverts).ok());
  });
  harness.Speedup("maintain/delta_vs_rebuild", "maintain/rebuild",
                  "maintain/apply_delta");

  return harness.Finish();
}
