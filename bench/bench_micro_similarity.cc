// Micro-benchmarks for the similarity kernels, with explicit before/after
// comparisons for the kernel rewrites:
//
//  * edit: full Levenshtein vs. the banded threshold kernel the matcher
//    uses (no old/new pair — both are current kernels).
//  * jaro_winkler: the former scalar Jaro kernel (two std::vector<bool>
//    per call, a character-by-character window scan; rebuilt here as the
//    baseline) vs. er::JaroWinklerSimilarity's bit-parallel kernel, over
//    similar and dissimilar title pairs.
//  * jaro_winkler/at_least: the threshold decision er::JaroWinklerAtLeast
//    makes at t = 0.85 (a byte-count upper bound rejects most pairs
//    before the kernel) vs. the bit-parallel similarity over the same
//    pairs; the share of pairs the bound lets through is printed.
//    All three per-pair kernels are timed in alternation, each call
//    sweeping all 256 pairs, and reported in ns per pair.
//  * jaro_winkler/sketched_block: the same decisions over every pair of
//    one block of the Fig-9 skew s=1 corpus (the first 300 titles of its
//    largest block), the way a reduce group makes them: each title is
//    sketched once (er::SketchField, counted in the time) and every pair
//    reads the two sketches, vs. jaro_winkler/at_least_block, which
//    rebuilds the byte counts per pair. Both report ns per block, timed
//    call by call in alternation.
//
// `--json <path>` writes the results as BENCH_*.json (see bench_json.h).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/random.h"
#include "er/similarity.h"
#include "gen/skew_gen.h"

namespace {

using erlb::Pcg32;

volatile double g_sink = 0.0;

std::vector<std::pair<std::string, std::string>> MakeTitlePairs(
    size_t count, bool similar) {
  Pcg32 rng(similar ? 1 : 2);
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string a;
    for (int j = 0; j < 24; ++j) {
      a += static_cast<char>('a' + rng.NextBounded(26));
      if (j % 6 == 5) a += ' ';
    }
    std::string b = a;
    if (similar) {
      b[rng.NextBounded(static_cast<uint32_t>(b.size()))] = 'q';
    } else {
      for (auto& c : b) {
        if (rng.NextDouble() < 0.5) {
          c = static_cast<char>('a' + rng.NextBounded(26));
        }
      }
    }
    pairs.emplace_back(std::move(a), std::move(b));
  }
  return pairs;
}

// The Jaro kernel as it was before the bit-parallel rewrite.
double OldJaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t la = a.size(), lb = b.size();
  const size_t window =
      std::max<size_t>(la, lb) / 2 == 0 ? 0 : std::max(la, lb) / 2 - 1;

  std::vector<bool> a_matched(la, false), b_matched(lb, false);
  size_t matches = 0;
  for (size_t i = 0; i < la; ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(lb, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = true;
        b_matched[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;

  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < la; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = static_cast<double>(matches);
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

double OldJaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = OldJaroSimilarity(a, b);
  size_t prefix = 0;
  for (size_t i = 0; i < std::min({a.size(), b.size(), size_t{4}}); ++i) {
    if (a[i] != b[i]) break;
    ++prefix;
  }
  return std::min(jaro + prefix * 0.1 * (1.0 - jaro), 1.0);
}

void BenchEdit(erlb::bench::MicroBench* mb) {
  for (bool similar : {false, true}) {
    auto pairs = MakeTitlePairs(256, similar);
    const std::string tag = similar ? "similar" : "dissimilar";
    size_t i = 0;
    mb->Run("edit/full_" + tag, [&] {
      const auto& [a, b] = pairs[i++ & 255];
      g_sink = g_sink + static_cast<double>(erlb::er::EditDistance(a, b));
    });
    i = 0;
    mb->Run("edit/banded_threshold_" + tag, [&] {
      const auto& [a, b] = pairs[i++ & 255];
      g_sink =
          g_sink + (erlb::er::EditSimilarityAtLeast(a, b, 0.8) ? 1.0 : 0.0);
    });
  }
}

void BenchJaroWinkler(erlb::bench::MicroBench* mb) {
  // Half similar, half dissimilar pairs, so both the long match runs of
  // near-duplicates and the early misses of unrelated titles count.
  auto pairs = MakeTitlePairs(128, true);
  auto dissimilar = MakeTitlePairs(128, false);
  pairs.insert(pairs.end(), dissimilar.begin(), dissimilar.end());
  mb->RunInterleaved(
      {"jaro_winkler/scalar_reference", "jaro_winkler/bit_parallel",
       "jaro_winkler/at_least"},
      static_cast<int64_t>(pairs.size()),
      [&] {
        for (const auto& [a, b] : pairs) {
          g_sink = g_sink + OldJaroWinklerSimilarity(a, b);
        }
      },
      [&] {
        for (const auto& [a, b] : pairs) {
          g_sink = g_sink + erlb::er::JaroWinklerSimilarity(a, b);
        }
      },
      [&] {
        for (const auto& [a, b] : pairs) {
          g_sink =
              g_sink + (erlb::er::JaroWinklerAtLeast(a, b, 0.85) ? 1.0 : 0.0);
        }
      });
  mb->Speedup("jaro_winkler/speedup", "jaro_winkler/scalar_reference",
              "jaro_winkler/bit_parallel");
  mb->Speedup("jaro_winkler/at_least_speedup", "jaro_winkler/bit_parallel",
              "jaro_winkler/at_least");
  size_t survivors = 0;
  for (const auto& [a, b] : pairs) {
    if (erlb::er::JaroWinklerUpperBound(a, b) >= 0.85 - 1e-9) ++survivors;
  }
  std::printf("jaro_winkler/at_least: %zu of %zu pairs pass the bound\n",
              survivors, pairs.size());
}

/// The first `limit` titles of the largest block of the Fig-9 skew s=1
/// corpus (2000 entities, 100 blocks, seed 1).
std::vector<std::string> SkewBlockTitles(size_t limit) {
  erlb::gen::SkewConfig cfg;
  cfg.num_entities = 2000;
  cfg.num_blocks = 100;
  cfg.skew = 1.0;
  cfg.seed = 1;
  auto entities = erlb::gen::GenerateSkewed(cfg);
  ERLB_CHECK(entities.ok()) << entities.status().ToString();
  std::map<std::string, std::vector<std::string>> blocks;
  for (const auto& e : *entities) {
    blocks[e.fields[erlb::gen::kSkewBlockField]].push_back(
        e.fields[erlb::gen::kSkewTitleField]);
  }
  std::vector<std::string> largest;
  for (auto& [key, titles] : blocks) {
    if (titles.size() > largest.size()) largest = std::move(titles);
  }
  if (largest.size() > limit) largest.resize(limit);
  return largest;
}

void BenchJaroWinklerBlock(erlb::bench::MicroBench* mb) {
  constexpr double kThreshold = 0.85;
  const std::vector<std::string> titles = SkewBlockTitles(300);
  std::vector<erlb::er::FieldSketch> sketches(titles.size());
  size_t matches = 0;
  mb->RunInterleaved(
      {"jaro_winkler/at_least_block", "jaro_winkler/sketched_block"}, 1,
      [&] {
        for (size_t i = 0; i < titles.size(); ++i) {
          for (size_t j = 0; j < i; ++j) {
            matches += erlb::er::JaroWinklerAtLeast(titles[j], titles[i],
                                                    kThreshold);
          }
        }
      },
      [&] {
        for (size_t i = 0; i < titles.size(); ++i) {
          sketches[i] = erlb::er::SketchField(titles[i]);
          for (size_t j = 0; j < i; ++j) {
            matches += erlb::er::JaroWinklerAtLeast(
                titles[j], sketches[j], titles[i], sketches[i], kThreshold);
          }
        }
      });
  mb->Speedup("jaro_winkler/sketched_block_speedup",
              "jaro_winkler/at_least_block", "jaro_winkler/sketched_block");
  g_sink = g_sink + static_cast<double>(matches);
  std::printf("jaro_winkler/sketched_block: %zu titles, %zu pairs\n",
              titles.size(), titles.size() * (titles.size() - 1) / 2);
}

}  // namespace

int main(int argc, char** argv) {
  erlb::bench::MicroBench mb("bench_micro_similarity");
  if (!mb.ParseArgs(argc, argv)) return 1;
  BenchEdit(&mb);
  BenchJaroWinkler(&mb);
  BenchJaroWinklerBlock(&mb);
  return mb.Finish();
}
