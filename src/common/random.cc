#include "common/random.h"

#include <cmath>

#include "common/logging.h"

namespace erlb {

Pcg32::Pcg32(uint64_t seed, uint64_t stream) {
  inc_ = (stream << 1u) | 1u;
  state_ = 0;
  Next();
  state_ += seed;
  Next();
}

uint32_t Pcg32::Next() {
  uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
  uint32_t rot = static_cast<uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
}

uint32_t Pcg32::NextBounded(uint32_t bound) {
  ERLB_CHECK(bound > 0);
  // Lemire-style rejection-free-ish bounded generation with bias rejection.
  uint32_t threshold = (0u - bound) % bound;
  for (;;) {
    uint32_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Pcg32::NextInRange(int64_t lo, int64_t hi) {
  ERLB_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range; compose two draws
    uint64_t r = (static_cast<uint64_t>(Next()) << 32) | Next();
    return static_cast<int64_t>(r);
  }
  if (span <= 0xffffffffull) {
    return lo + NextBounded(static_cast<uint32_t>(span));
  }
  // span > 2^32: draw 64 bits, mod with negligible bias for our use cases.
  uint64_t r = (static_cast<uint64_t>(Next()) << 32) | Next();
  return lo + static_cast<int64_t>(r % span);
}

double Pcg32::NextDouble() {
  return Next() * (1.0 / 4294967296.0);
}

double Pcg32::NextGaussian(double mean, double stddev) {
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-12);
  double u2 = NextDouble();
  double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

ZipfSampler::ZipfSampler(uint32_t n, double exponent) {
  ERLB_CHECK(n >= 1);
  cdf_.resize(n);
  double sum = 0.0;
  for (uint32_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = sum;
  }
  for (uint32_t k = 0; k < n; ++k) cdf_[k] /= sum;
  cdf_[n - 1] = 1.0;  // guard against FP rounding
}

uint32_t ZipfSampler::Sample(Pcg32* rng) const {
  double u = rng->NextDouble();
  // First index with cdf >= u.
  uint32_t lo = 0, hi = static_cast<uint32_t>(cdf_.size()) - 1;
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double ZipfSampler::Probability(uint32_t k) const {
  ERLB_CHECK(k < cdf_.size());
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

}  // namespace erlb
