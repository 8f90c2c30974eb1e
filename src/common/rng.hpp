// Deterministic random number generation for the simulator.
//
// Every stochastic component takes an explicit seed (or a child stream
// split from a parent Rng), so whole experiments are reproducible
// bit-for-bit across runs and platforms. std::mt19937 + std::*distribution
// are deliberately avoided: their outputs are not portable across standard
// library implementations.
#pragma once

#include <cstdint>

namespace choir {

/// xoshiro256** seeded via splitmix64. Fast, high-quality, and portable.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Standard normal via Box-Muller (portable, no cached spare state
  /// shared across streams).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double sigma) { return mean + sigma * normal(); }

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Log-normal where the *underlying* normal has the given mu/sigma.
  double lognormal(double mu, double sigma);

  /// Bernoulli trial with probability p.
  bool chance(double p) { return uniform() < p; }

  /// Derive an independent child stream; deterministic in (state, salt).
  Rng split(std::uint64_t salt);

 private:
  std::uint64_t s_[4];
};

/// splitmix64 step, exposed for seeding / hashing uses elsewhere.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace choir
