// Deterministic pseudo-random generation: PCG32 engine plus the samplers
// used by the synthetic workload generators (uniform, Zipf, exponential).
#ifndef ERLB_COMMON_RANDOM_H_
#define ERLB_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace erlb {

/// PCG32 (XSH-RR 64/32): small, fast, statistically solid generator with a
/// 64-bit state and 64-bit stream selector. Deterministic across platforms,
/// unlike std::mt19937 seeded via std::seed_seq paths.
class Pcg32 {
 public:
  explicit Pcg32(uint64_t seed = 0x853c49e6748fea9bULL,
                 uint64_t stream = 0xda3e39cb94b95bdbULL);

  /// Next 32 uniformly distributed bits.
  uint32_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint32_t NextBounded(uint32_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Normal variate via Box-Muller.
  double NextGaussian(double mean = 0.0, double stddev = 1.0);

  using result_type = uint32_t;
  static constexpr uint32_t min() { return 0; }
  static constexpr uint32_t max() { return 0xffffffffu; }
  uint32_t operator()() { return Next(); }

 private:
  uint64_t state_;
  uint64_t inc_;
};

/// Samples block indices from a Zipf distribution with exponent `exponent`
/// over ranks 1..n: P(rank k) ∝ k^(-exponent). Uses precomputed CDF +
/// binary search; construction is O(n), sampling O(log n).
class ZipfSampler {
 public:
  /// \param n        number of ranks (>= 1)
  /// \param exponent Zipf exponent (>= 0; 0 degenerates to uniform)
  ZipfSampler(uint32_t n, double exponent);

  /// Returns a rank in [0, n), 0 being the most probable.
  uint32_t Sample(Pcg32* rng) const;

  /// Probability mass of rank k (0-based).
  double Probability(uint32_t k) const;

  uint32_t n() const { return static_cast<uint32_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

/// Deterministically shuffles `v` in place (Fisher-Yates) using `rng`.
template <typename T>
void Shuffle(std::vector<T>* v, Pcg32* rng) {
  if (v->empty()) return;
  for (size_t i = v->size() - 1; i > 0; --i) {
    size_t j = rng->NextBounded(static_cast<uint32_t>(i + 1));
    std::swap((*v)[i], (*v)[j]);
  }
}

}  // namespace erlb

#endif  // ERLB_COMMON_RANDOM_H_
