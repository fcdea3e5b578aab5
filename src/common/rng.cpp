#include "common/rng.hpp"

#include <stdexcept>

#include "common/hash.hpp"

namespace ats {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  // Mix the stream id into the seed so streams are decorrelated.
  std::uint64_t sm = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) {
    throw std::invalid_argument("Rng::next_below: bound must be > 0");
  }
  // Lemire-style rejection-free-enough reduction; bias is negligible for the
  // bounds used here (array indices), but we reject the tail for exactness.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::next_in: lo > hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(span == 0 ? next_u64()
                                                  : next_below(span));
}

double Rng::next_in(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

SplitSeed SplitSeed::child(std::string_view label) const {
  // FNV-1a over the label, offset by the parent value, then a SplitMix64
  // finalisation pass so nearby parents / similar labels decorrelate.
  std::uint64_t state = fnv1a64(label, v_ ^ kFnv1a64Offset);
  return SplitSeed(splitmix64(state));
}

SplitSeed SplitSeed::child(std::uint64_t index) const {
  std::uint64_t state = v_ ^ ((index + 1) * 0x9e3779b97f4a7c15ULL);
  return SplitSeed(splitmix64(state));
}

}  // namespace ats
