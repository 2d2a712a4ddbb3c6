#ifndef DCMT_TENSOR_RANDOM_H_
#define DCMT_TENSOR_RANDOM_H_

#include <cstdint>
#include <vector>

namespace dcmt {

/// Stateless 64-bit mix: the SplitMix64 step applied to `x` (add the golden
/// gamma, then the finalizer). Cheap, deterministic and well distributed;
/// the generator's keyed noise, the A/B traffic seeds and event draws, the
/// serving hash rings and Rng seeding all hash through this one function.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic U(0,1) for a key: the 24 high bits of Mix64(key), the same
/// float construction as Rng::Uniform. The same key resolves identically
/// everywhere, which is what pairs A/B buckets on one event.
inline float HashUniform(std::uint64_t key) {
  return static_cast<float>(Mix64(key) >> 40) * (1.0f / 16777216.0f);
}

/// Complete serializable state of an Rng: restoring it resumes the stream at
/// exactly the draw where it was captured (including the cached Box-Muller
/// spare, which matters for bit-exact Normal() replay).
struct RngState {
  std::uint64_t s[4] = {0, 0, 0, 0};
  bool has_spare_normal = false;
  float spare_normal = 0.0f;
};

/// Deterministic pseudo-random number generator (splitmix64-seeded
/// xoshiro256**). Every stochastic component in this library takes an explicit
/// seed and draws from one of these, so identically-seeded runs are
/// bit-identical across platforms — std::mt19937 distributions are not
/// guaranteed to be, which is why we roll our own distributions too.
class Rng {
 public:
  /// Creates a generator whose stream is fully determined by `seed`.
  explicit Rng(std::uint64_t seed);

  /// Returns the next raw 64-bit value of the stream.
  std::uint64_t NextUint64();

  /// Returns an integer uniform on [0, bound). `bound` must be positive.
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Returns a float uniform on [0, 1).
  float Uniform();

  /// Returns a float uniform on [lo, hi).
  float Uniform(float lo, float hi);

  /// Returns a standard normal draw (Box-Muller, cached spare).
  float Normal();

  /// Returns a normal draw with the given mean and standard deviation.
  float Normal(float mean, float stddev);

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool Bernoulli(float p);

  /// Fisher-Yates shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    if (values->empty()) return;
    for (std::size_t i = values->size() - 1; i > 0; --i) {
      std::size_t j = static_cast<std::size_t>(NextBounded(i + 1));
      std::swap((*values)[i], (*values)[j]);
    }
  }

  /// Derives an independent child generator; `stream` distinguishes children
  /// spawned from the same parent state.
  Rng Split(std::uint64_t stream);

  /// Captures the full generator state for checkpointing.
  RngState state() const;

  /// Restores a state captured by state(); the stream continues bit-exactly.
  void set_state(const RngState& state);

 private:
  std::uint64_t state_[4];
  bool has_spare_normal_ = false;
  float spare_normal_ = 0.0f;
};

}  // namespace dcmt

#endif  // DCMT_TENSOR_RANDOM_H_
