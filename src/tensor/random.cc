#include "tensor/random.h"

#include <cmath>

namespace dcmt {
namespace {

std::uint64_t RotL(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // SplitMix64 stream: the i-th draw is Mix64(seed + i * gamma).
  std::uint64_t sm = seed;
  for (auto& s : state_) {
    s = Mix64(sm);
    sm += 0x9e3779b97f4a7c15ULL;
  }
}

std::uint64_t Rng::NextUint64() {
  // xoshiro256** by Blackman & Vigna (public domain reference implementation).
  const std::uint64_t result = RotL(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  // Lemire-style rejection to avoid modulo bias.
  std::uint64_t threshold = (-bound) % bound;
  for (;;) {
    std::uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

float Rng::Uniform() {
  // 24 high bits -> float in [0, 1).
  return static_cast<float>(NextUint64() >> 40) * (1.0f / 16777216.0f);
}

float Rng::Uniform(float lo, float hi) { return lo + (hi - lo) * Uniform(); }

float Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  float u1 = 0.0f;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-12f);
  const float u2 = Uniform();
  const float radius = std::sqrt(-2.0f * std::log(u1));
  const float angle = 6.283185307179586f * u2;
  spare_normal_ = radius * std::sin(angle);
  has_spare_normal_ = true;
  return radius * std::cos(angle);
}

float Rng::Normal(float mean, float stddev) { return mean + stddev * Normal(); }

bool Rng::Bernoulli(float p) {
  if (p <= 0.0f) return false;
  if (p >= 1.0f) return true;
  return Uniform() < p;
}

RngState Rng::state() const {
  RngState s;
  for (int i = 0; i < 4; ++i) s.s[i] = state_[i];
  s.has_spare_normal = has_spare_normal_;
  s.spare_normal = spare_normal_;
  return s;
}

void Rng::set_state(const RngState& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.s[i];
  has_spare_normal_ = state.has_spare_normal;
  spare_normal_ = state.spare_normal;
}

Rng Rng::Split(std::uint64_t stream) {
  return Rng(NextUint64() ^ (stream * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL));
}

}  // namespace dcmt
