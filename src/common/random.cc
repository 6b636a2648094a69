#include "common/random.h"

#include <cmath>
#include <numeric>

namespace slicetuner {

namespace {

// splitmix64: used to expand the 64-bit seed into the 256-bit xoshiro state.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(UniformInt(span));
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; avoid log(0) by shifting Uniform() away from zero.
  double u1 = Uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return Uniform() < p;
}

double Rng::Exponential(double lambda) {
  double u = Uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / lambda;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  return Categorical(weights.size(),
                     [&weights](size_t i) { return weights[i]; });
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), size_t{0});
  for (size_t i = n; i > 1; --i) {
    const size_t j = UniformInt(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  if (k > n) k = n;
  // Partial Fisher-Yates: O(n) memory but only k swaps.
  std::vector<size_t> pool(n);
  std::iota(pool.begin(), pool.end(), size_t{0});
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + UniformInt(n - i);
    std::swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
  return out;
}

Rng Rng::Fork() { return Rng(Next()); }

uint64_t Rng::ForkSeed(uint64_t index) const {
  // Condense the 256-bit state and the stream index into one 64-bit seed,
  // then run it through splitmix64 twice to decorrelate adjacent indices.
  uint64_t mix = state_[0] ^ Rotl(state_[1], 13) ^ Rotl(state_[2], 29) ^
                 Rotl(state_[3], 43);
  mix ^= 0x9E3779B97F4A7C15ULL * (index + 1);
  uint64_t sm = mix;
  (void)SplitMix64(&sm);
  return SplitMix64(&sm);
}

Rng Rng::Fork(uint64_t index) const { return Rng(ForkSeed(index)); }

}  // namespace slicetuner
