#include "logic/cube.hpp"

#include <bit>

#include "util/error.hpp"

namespace nshot::logic {

std::uint64_t Cube::input_mask(int num_inputs) {
  NSHOT_REQUIRE(num_inputs >= 0 && num_inputs <= 64, "cube supports at most 64 input variables");
  return num_inputs == 64 ? ~0ULL : ((1ULL << num_inputs) - 1ULL);
}

Cube Cube::full(int num_inputs, std::uint64_t outputs) {
  const std::uint64_t mask = input_mask(num_inputs);
  return Cube(mask, mask, outputs, num_inputs);
}

Cube Cube::minterm(std::uint64_t code, int num_inputs, std::uint64_t outputs) {
  const std::uint64_t mask = input_mask(num_inputs);
  NSHOT_REQUIRE((code & ~mask) == 0, "minterm code has bits beyond the declared inputs");
  return Cube(~code & mask, code & mask, outputs, num_inputs);
}

Cube Cube::from_bits(std::uint64_t lo, std::uint64_t hi, int num_inputs, std::uint64_t outputs) {
  const std::uint64_t mask = input_mask(num_inputs);
  return Cube(lo & mask, hi & mask, outputs, num_inputs);
}

bool Cube::covers_minterm(std::uint64_t code) const {
  const std::uint64_t mask = input_mask(num_inputs_);
  return (((code & hi_) | (~code & lo_)) & mask) == mask;
}

bool Cube::contains(const Cube& other) const {
  return (other.lo_ & ~lo_) == 0 && (other.hi_ & ~hi_) == 0 && (other.out_ & ~out_) == 0;
}

bool Cube::input_intersects(const Cube& other) const {
  // Empty intersection iff some variable admits no common value.
  const std::uint64_t common = (lo_ & other.lo_) | (hi_ & other.hi_);
  return (common & input_mask(num_inputs_)) == input_mask(num_inputs_);
}

Cube Cube::supercube(const Cube& other) const {
  return Cube(lo_ | other.lo_, hi_ | other.hi_, out_ | other.out_, num_inputs_);
}

std::optional<Cube> Cube::input_intersection(const Cube& other) const {
  if (!input_intersects(other)) return std::nullopt;
  return Cube(lo_ & other.lo_, hi_ & other.hi_, out_ | other.out_, num_inputs_);
}

bool Cube::var_is_free(int v) const {
  const std::uint64_t bit = 1ULL << v;
  return (lo_ & bit) && (hi_ & bit);
}

void Cube::raise_var(int v) {
  const std::uint64_t bit = 1ULL << v;
  lo_ |= bit;
  hi_ |= bit;
}

void Cube::restrict_var(int v, bool value) {
  const std::uint64_t bit = 1ULL << v;
  if (value) {
    lo_ &= ~bit;
    hi_ |= bit;
  } else {
    lo_ |= bit;
    hi_ &= ~bit;
  }
}

int Cube::literal_count() const {
  const std::uint64_t free_vars = lo_ & hi_;
  return num_inputs_ - std::popcount(free_vars & input_mask(num_inputs_));
}

std::uint64_t Cube::minterm_count() const {
  const int free_vars = std::popcount(lo_ & hi_ & input_mask(num_inputs_));
  if (free_vars >= 63) return 1ULL << 63;
  return 1ULL << free_vars;
}

bool operator<(const Cube& a, const Cube& b) {
  if (a.lo_ != b.lo_) return a.lo_ < b.lo_;
  if (a.hi_ != b.hi_) return a.hi_ < b.hi_;
  return a.out_ < b.out_;
}

std::string Cube::to_string() const {
  std::string text;
  text.reserve(static_cast<std::size_t>(num_inputs_) + 8);
  for (int v = 0; v < num_inputs_; ++v) {
    const bool lo = (lo_ >> v) & 1ULL;
    const bool hi = (hi_ >> v) & 1ULL;
    if (lo && hi)
      text.push_back('-');
    else if (hi)
      text.push_back('1');
    else if (lo)
      text.push_back('0');
    else
      text.push_back('!');  // empty literal: never produced by the public API
  }
  text += " | ";
  for (int o = 63; o >= 0; --o)
    if ((out_ >> o) & 1ULL) {
      for (int p = o; p >= 0; --p) text.push_back(((out_ >> p) & 1ULL) ? '1' : '0');
      return text;
    }
  text.push_back('0');
  return text;
}

}  // namespace nshot::logic
