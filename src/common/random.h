// Seedable random number generation used across the library. Every stochastic
// component takes an explicit Rng (or seed) so experiments are reproducible.

#ifndef SLICETUNER_COMMON_RANDOM_H_
#define SLICETUNER_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace slicetuner {

/// xoshiro256** generator: fast, high-quality, and fully deterministic given
/// a 64-bit seed. Satisfies the UniformRandomBitGenerator requirements.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return Next(); }

  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);
  /// Standard normal via Box-Muller (cached pair).
  double Normal();
  /// Normal with the given mean and standard deviation (stddev >= 0).
  double Normal(double mean, double stddev);
  /// Log-normal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);
  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);
  /// Exponential with rate lambda > 0.
  double Exponential(double lambda);
  /// Samples an index according to (non-negative) unnormalized weights.
  /// Returns weights.size() - 1 if all weights are zero.
  size_t Categorical(const std::vector<double>& weights);
  /// The same draw over the n weights weight_of(0..n-1), read in place.
  template <typename WeightOf>
  size_t Categorical(size_t n, const WeightOf& weight_of);

  /// Fisher-Yates shuffle of indices [0, n).
  std::vector<size_t> Permutation(size_t n);

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Derives an independent child generator; useful for spawning per-thread
  /// or per-task streams from one master seed. Advances this generator.
  Rng Fork();

  /// Derives the seed of child stream `index` without advancing this
  /// generator: ForkSeed(i) is a pure function of (current state, i), so
  /// distinct indices yield statistically independent streams and the same
  /// index always yields the same stream. This is the engine's determinism
  /// primitive: parallel tasks seeded with Fork(task_index) produce
  /// bit-identical results regardless of scheduling or thread count.
  uint64_t ForkSeed(uint64_t index) const;

  /// Rng(ForkSeed(index)): the child generator of stream `index`.
  Rng Fork(uint64_t index) const;

 private:
  uint64_t Next();

  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

template <typename WeightOf>
size_t Rng::Categorical(size_t n, const WeightOf& weight_of) {
  const auto weight = [&weight_of](size_t i) {
    const double w = weight_of(i);
    return w > 0.0 ? w : 0.0;
  };
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += weight(i);
  if (total <= 0.0) return n == 0 ? 0 : n - 1;
  double r = Uniform() * total;
  for (size_t i = 0; i < n; ++i) {
    const double w = weight(i);
    if (r < w) return i;
    r -= w;
  }
  return n - 1;
}

}  // namespace slicetuner

#endif  // SLICETUNER_COMMON_RANDOM_H_
