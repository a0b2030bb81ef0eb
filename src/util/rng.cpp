#include "lcda/util/rng.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace lcda::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_mix(std::uint64_t key) {
  std::uint64_t s = key;
  return splitmix64(s);
}

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return hash_mix(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  return hash_combine(base, index + 1);
}

IntHasher::IntHasher(std::uint64_t seed) : h_(hash_mix(seed + 0x51ed2701u)) {}

void IntHasher::add(int v) {
  h_ = hash_combine(h_, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
}

std::uint64_t hash_ints(std::span<const int> values, std::uint64_t seed) {
  IntHasher h(seed);
  for (int v : values) h.add(v);
  return h.value();
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random bits -> [0,1) double.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return lo + static_cast<std::int64_t>(x % span);
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_normal_ = mag * std::sin(2.0 * std::numbers::pi * u2);
  has_spare_ = true;
  return mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::normal_once() {
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal_once(double mean, double stddev) {
  return mean + stddev * normal_once();
}

bool Rng::chance(double p) { return uniform() < p; }

std::size_t Rng::index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Rng::index: empty range");
  return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument("Rng::weighted_index: empty");
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("Rng::weighted_index: negative weight");
    total += w;
  }
  return weighted_index(weights, total);
}

std::size_t Rng::weighted_index(std::span<const double> weights, double total) {
  if (weights.empty()) throw std::invalid_argument("Rng::weighted_index: empty");
  if (total <= 0.0) return index(weights.size());
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork() { return Rng(next_u64()); }

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace lcda::util
