// Byte-identity pins for the heuristic minimizer: a 64-bit FNV-1a digest of
// Cover::to_string() from logic::espresso on every Table 2 benchmark's
// derived (F, D, R) specification, with output sharing on and off.
//
// EXPAND's speed-ups (bit-sliced validity, the compacted pending list, the
// one-pass gain scoring) must choose exactly the same raises as the plain
// loop, so these digests must never move.  A diff here means the minimizer's
// behaviour changed, not just its speed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "bench_suite/benchmarks.hpp"
#include "logic/espresso.hpp"
#include "nshot/spec_derivation.hpp"

namespace nshot {
namespace {

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct Pinned {
  const char* name;
  std::uint64_t shared;    // share_outputs = true (the default)
  std::uint64_t unshared;  // share_outputs = false
};

constexpr Pinned kPinned[] = {
    {"chu133", 0x198cf03e1ad24640ULL, 0x8e74acb77be7952dULL},
    {"chu150", 0x61d59e444db0f952ULL, 0x467992fd32fe1f99ULL},
    {"chu172", 0x55322b2d6da30e69ULL, 0x7fc12daf0e84d3afULL},
    {"converta", 0x85e890ae0480c11fULL, 0x85e890ae0480c11fULL},
    {"ebergen", 0xc9d6557160b94c89ULL, 0x76e4f103bc1153caULL},
    {"full", 0x575542eddf27bea9ULL, 0x575542eddf27bea9ULL},
    {"hazard", 0x2290413a8279be15ULL, 0x2290413a8279be15ULL},
    {"hybridf", 0xe08724e70f9ffc67ULL, 0x07d6049d630bc28eULL},
    {"pe-send-ifc", 0x7eb06a04efaed5e4ULL, 0x633e2498bb255148ULL},
    {"qr42", 0xa8c670b8f71518ccULL, 0xa8c670b8f71518ccULL},
    {"vbe10b", 0x0abff4ec790f4982ULL, 0xbf1a102309db9c09ULL},
    {"vbe5b", 0xc81c735036fcb92eULL, 0x8ea872f63afa500fULL},
    {"wrdatab", 0xcfdc74efdf764284ULL, 0xcfdc74efdf764284ULL},
    {"sbuf-send-ctl", 0x9d72cbf61e8fb5dcULL, 0x41a656c155f484dfULL},
    {"pr-rcv-ifc", 0xf967a0be85a0563aULL, 0xe88c57ca002952c7ULL},
    {"master-read", 0xf974631faca7a3d3ULL, 0xf974631faca7a3d3ULL},
    {"read-write", 0xd6ac1fcbd59d7c61ULL, 0xd6ac1fcbd59d7c61ULL},
    {"tsbmsi", 0xe6ef695321bf704cULL, 0x32bc7a411bb12fe8ULL},
    {"tsbmsiBRK", 0x257df4bddbbba518ULL, 0xb90efc1cb321af4fULL},
    {"pmcm1", 0x483500274ac30ab7ULL, 0x483500274ac30ab7ULL},
    {"pmcm2", 0x946958d9090d2087ULL, 0x946958d9090d2087ULL},
    {"combuf1", 0x3f0ca826f851ec2aULL, 0x3f0ca826f851ec2aULL},
    {"combuf2", 0x6ea57a9ca1c62baaULL, 0x6ea57a9ca1c62baaULL},
    {"sing2dual-inp", 0xcda64450963d8066ULL, 0xcda64450963d8066ULL},
    {"sing2dual-out", 0x9be4c675f83f31e9ULL, 0x9be4c675f83f31e9ULL},
};

// Print the circuit name, not the struct's bytes (which hold a pointer),
// so the listed test names are the same in every build.
void PrintTo(const Pinned& pinned, std::ostream* out) { *out << pinned.name; }

std::string hex(std::uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof text, "0x%016llxULL", static_cast<unsigned long long>(value));
  return text;
}

class EspressoDigestTest : public ::testing::TestWithParam<Pinned> {};

TEST_P(EspressoDigestTest, CoverTextIsPinned) {
  const Pinned& pinned = GetParam();
  const core::DerivedSpec derived = core::derive_spec(bench_suite::build_benchmark(pinned.name));
  for (const bool share : {true, false}) {
    logic::EspressoOptions options;
    options.share_outputs = share;
    const std::string text = logic::espresso(derived.spec, options).to_string();
    EXPECT_EQ(hex(fnv1a64(text)), hex(share ? pinned.shared : pinned.unshared))
        << pinned.name << " share_outputs=" << share << "\n"
        << text;
  }
}

TEST(EspressoDigestTableTest, CoversEveryBenchmarkInOrder) {
  const auto& all = bench_suite::all_benchmarks();
  ASSERT_EQ(all.size(), std::size(kPinned));
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].name, kPinned[i].name);
}

INSTANTIATE_TEST_SUITE_P(Table2, EspressoDigestTest, ::testing::ValuesIn(kPinned),
                         [](const ::testing::TestParamInfo<Pinned>& info) {
                           std::string name = info.param.name;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace nshot
