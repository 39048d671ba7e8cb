// Byte-identity pins for the stress campaign: a 64-bit FNV-1a digest of
// faults::stress_report_json on every Table 2 benchmark, synthesized with
// the default options and stressed at the Pipeline's default StressOptions
// (margin runs 5, restarts 2, iterations 250, stress factor 1.0).
//
// The adversarial hill-climb's objective memo must replay exactly the
// climb it replaces — same accepted steps, same best point, same
// evaluation count — so these digests must never move.  A diff here means
// the stress report changed, not just its speed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "bench_suite/benchmarks.hpp"
#include "faults/stress.hpp"
#include "nshot/synthesis.hpp"

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
  std::uint64_t digest;
};

constexpr Pinned kPinned[] = {
    {"chu133", 0x63fb9c8060a9ee7bULL},
    {"chu150", 0xb86f29a3e4a8aa69ULL},
    {"chu172", 0xb606b34eccf5c745ULL},
    {"converta", 0xb59f360edaafbe89ULL},
    {"ebergen", 0xe4863d46ed286c41ULL},
    {"full", 0xc1cc27ca9da0b3d1ULL},
    {"hazard", 0xd9e4345c9c68bfabULL},
    {"hybridf", 0x289bf0cb36c1d274ULL},
    {"pe-send-ifc", 0xb1f6a047e5fd7907ULL},
    {"qr42", 0x9a6b8338ad13f689ULL},
    {"vbe10b", 0x375511e4c0d6b7d3ULL},
    {"vbe5b", 0x7a39621cd3add2deULL},
    {"wrdatab", 0xa721aa621b46de2fULL},
    {"sbuf-send-ctl", 0x6e8b78931b01ae2fULL},
    {"pr-rcv-ifc", 0xf74f973cc91e6f32ULL},
    {"master-read", 0xaf7b5775791d79afULL},
    {"read-write", 0x0d9323339ffc39f3ULL},
    {"tsbmsi", 0xb215e87a0bb8e309ULL},
    {"tsbmsiBRK", 0x99f24e007937855aULL},
    {"pmcm1", 0xb1a1fabed46adc0cULL},
    {"pmcm2", 0x50707f957192ce99ULL},
    {"combuf1", 0x559f3ca4600f96dfULL},
    {"combuf2", 0x8bae6bfcc709f642ULL},
    {"sing2dual-inp", 0x1c0331e5684c1605ULL},
    {"sing2dual-out", 0x2813eff619450492ULL},
};

// Print the circuit name, not the struct's bytes (which hold a pointer),
// so the listed test names are the same in every build.
void PrintTo(const Pinned& pinned, std::ostream* out) { *out << pinned.name; }

std::string hex(std::uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof text, "0x%016llxULL", static_cast<unsigned long long>(value));
  return text;
}

std::string stress_json(const sg::StateGraph& graph, const netlist::Netlist& circuit,
                        const std::string& name, int jobs) {
  faults::StressOptions options;
  options.jobs = jobs;
  options.adversarial.jobs = jobs;
  return faults::stress_report_json(faults::run_stress(graph, circuit, name, options));
}

class AdversarialDigestTest : public ::testing::TestWithParam<Pinned> {};

TEST_P(AdversarialDigestTest, StressReportIsPinned) {
  const Pinned& pinned = GetParam();
  const sg::StateGraph graph = bench_suite::build_benchmark(pinned.name);
  const core::SynthesisResult result = core::synthesize(graph);
  const std::string serial = stress_json(graph, result.circuit, pinned.name, /*jobs=*/1);
  EXPECT_EQ(hex(fnv1a64(serial)), hex(pinned.digest)) << pinned.name << "\n" << serial;
  EXPECT_EQ(stress_json(graph, result.circuit, pinned.name, /*jobs=*/2), serial)
      << pinned.name << " diverges at jobs=2";
}

TEST(AdversarialDigestTableTest, CoversEveryBenchmarkInOrder) {
  const auto& all = bench_suite::all_benchmarks();
  ASSERT_EQ(all.size(), std::size(kPinned));
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].name, kPinned[i].name);
}

INSTANTIATE_TEST_SUITE_P(Table2, AdversarialDigestTest, ::testing::ValuesIn(kPinned),
                         [](const ::testing::TestParamInfo<Pinned>& info) {
                           std::string name = info.param.name;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace nshot
