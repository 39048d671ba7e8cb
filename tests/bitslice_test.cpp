// Differential test of the allocation-free bit-sliced predicate
// CodeBitPlanes::intersects against the reference linear scan
// TwoLevelSpec::cube_valid_for_output, on random specs and cubes.  The
// sizes cover every tail-word shape (0, 1, 63, 64, 65 and 129 off-codes),
// the extreme input widths (1 and 64), an empty off-set and cubes with an
// empty literal.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "logic/bitslice.hpp"
#include "logic/spec.hpp"
#include "util/rng.hpp"

namespace nshot::logic {
namespace {

/// A random cube over `num_inputs` variables.  Half the cubes are grown
/// from one of `codes` (so they hit the code set unless a literal is then
/// flipped); about one in eight gets an empty literal.
Cube random_cube(Rng& rng, int num_inputs, const std::vector<std::uint64_t>& codes) {
  const std::uint64_t mask = Cube::input_mask(num_inputs);
  std::uint64_t lo = mask;
  std::uint64_t hi = mask;
  if (!codes.empty() && rng.next_bool(0.5)) {
    const std::uint64_t code = codes[rng.next_below(codes.size())];
    const std::uint64_t bound = rng.next_u64() & rng.next_u64();  // ~1/4 of the variables
    lo = ~(code & bound);
    hi = code | ~bound;
    if (rng.next_bool(0.25)) {  // flip one literal: usually misses `code` now
      const std::uint64_t bit = 1ULL << rng.next_below(static_cast<std::uint64_t>(num_inputs));
      if ((lo ^ hi) & bit) {
        lo ^= bit;
        hi ^= bit;
      }
    }
  } else {
    const std::uint64_t value = rng.next_u64();
    const std::uint64_t bound = rng.next_u64() & rng.next_u64();
    lo = ~(value & bound);
    hi = value | ~bound;
  }
  if (rng.next_bool(0.125)) {
    const std::uint64_t bit = 1ULL << rng.next_below(static_cast<std::uint64_t>(num_inputs));
    lo &= ~bit;
    hi &= ~bit;
  }
  return Cube::from_bits(lo, hi, num_inputs);
}

/// (num_inputs, off-code count).  The codes are drawn with repetition and
/// not deduplicated, so every count gives its tail-word shape even over one
/// input.
using Shape = std::tuple<int, int>;

class IntersectsDifferentialTest : public ::testing::TestWithParam<Shape> {};

TEST_P(IntersectsDifferentialTest, MatchesLinearScanOfTheOffSet) {
  const auto [num_inputs, num_codes] = GetParam();
  Rng rng(0x5eedULL * static_cast<std::uint64_t>(num_inputs) +
          static_cast<std::uint64_t>(num_codes));
  const std::uint64_t mask = Cube::input_mask(num_inputs);
  for (int trial = 0; trial < 8; ++trial) {
    TwoLevelSpec spec(num_inputs, 1);
    for (int i = 0; i < num_codes; ++i) spec.add_off(0, rng.next_u64() & mask);
    const CodeBitPlanes planes(spec.off(0), num_inputs);
    ASSERT_EQ(planes.num_codes(), static_cast<std::size_t>(num_codes));
    int hits = 0;
    for (int c = 0; c < 500; ++c) {
      const Cube cube = random_cube(rng, num_inputs, spec.off(0));
      const bool reference = !spec.cube_valid_for_output(cube, 0);
      ASSERT_EQ(planes.intersects(cube), reference) << cube.to_string();
      hits += reference;
    }
    if (num_codes > 0) {
      EXPECT_GT(hits, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, IntersectsDifferentialTest,
                         ::testing::Combine(::testing::Values(1, 5, 13, 64),
                                            ::testing::Values(0, 1, 63, 64, 65, 129)),
                         [](const ::testing::TestParamInfo<Shape>& info) {
                           return "inputs" + std::to_string(std::get<0>(info.param)) + "_codes" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST(IntersectsTest, EmptyLiteralCoversNothing) {
  TwoLevelSpec spec(3, 1);
  for (std::uint64_t m = 0; m < 8; ++m) spec.add_off(0, m);
  const CodeBitPlanes planes(spec.off(0), 3);
  const Cube empty = Cube::from_bits(0b011, 0b011, 3);  // variable 2 admits neither value
  EXPECT_FALSE(planes.intersects(empty));
  EXPECT_TRUE(spec.cube_valid_for_output(empty, 0));
  EXPECT_TRUE(planes.intersects(Cube::full(3)));
}

TEST(IntersectsTest, EmptyOffSetIntersectsNothing) {
  const CodeBitPlanes planes({}, 4);
  EXPECT_EQ(planes.num_words(), 0u);
  EXPECT_FALSE(planes.intersects(Cube::full(4)));
}

TEST(IntersectsTest, TailWordBitsBeyondTheCodesNeverHit) {
  // 65 copies of code 0 span two words; the second word holds one code.
  // The all-ones cube over the tail word must only see that one bit.
  const std::vector<std::uint64_t> codes(65, 0);
  const CodeBitPlanes planes(codes, 2);
  EXPECT_EQ(planes.full_word(1), 1ULL);
  Cube x0 = Cube::full(2);
  x0.restrict_var(0, true);
  EXPECT_FALSE(planes.intersects(x0));  // every code has x0 = 0
  x0.restrict_var(0, false);
  EXPECT_TRUE(planes.intersects(x0));
}

}  // namespace
}  // namespace nshot::logic
