// Tests for the exhaustive speed-independence verifier and the delay-class
// classification it reproduces from the paper:
//
//  * N-SHOT circuits are correct under bounded delays (the timed
//    conformance suite) but are "neither speed-independent nor
//    delay-insensitive" (Section IV-A) — the untimed verifier must find
//    the trespassing-pulse scenario that Eq. 1's timing contract excludes.
//  * The SYN-like monotonous-cover circuits ARE speed-independent on the
//    simple benchmarks (the formal check passes exhaustively), and lose
//    that property exactly on the circuits where the paper reports SYN
//    needed "extra internal hardware to ensure proper acknowledgement".
//  * Decomposed complex-gate circuits are hazardous — the reason [2, 17]
//    must assume the complex gate is one atomic element.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generators.hpp"
#include "formal/si_verifier.hpp"
#include "nshot/synthesis.hpp"
#include "util/error.hpp"

namespace nshot::formal {
namespace {

TEST(SiVerifierTest, SynLikeCoversAreSpeedIndependent) {
  // Exhaustive over all delay interleavings: the monotonous-cover
  // C-implementation never misfires on these benchmarks.
  for (const char* name : {"chu133", "chu150", "chu172", "ebergen", "full", "hazard", "qr42",
                           "vbe5b", "sbuf-send-ctl"}) {
    const sg::StateGraph g = bench_suite::build_benchmark(name);
    const auto syn = baselines::synthesize_syn_like(g);
    ASSERT_TRUE(syn.ok()) << name;
    const SiVerifyResult result = verify_external_hazard_freeness(g, syn.result->circuit);
    EXPECT_TRUE(result.ok) << name << ": " << result.violation;
    EXPECT_FALSE(result.exhausted) << name;
    EXPECT_GT(result.states_explored, 0u);
  }
}

TEST(SiVerifierTest, SynLikeNeedsAckHardwareOnTheHardCircuits) {
  // Monotonous covers alone are not enough where cube falls go
  // unacknowledged — the circuits for which Table 2 shows SYN paying
  // extra area for acknowledgement hardware.
  for (const char* name : {"converta", "hybridf", "pr-rcv-ifc"}) {
    const sg::StateGraph g = bench_suite::build_benchmark(name);
    const auto syn = baselines::synthesize_syn_like(g);
    ASSERT_TRUE(syn.ok()) << name;
    const SiVerifyResult result = verify_external_hazard_freeness(g, syn.result->circuit);
    EXPECT_FALSE(result.ok) << name;
  }
}

TEST(SiVerifierTest, NshotIsNotSpeedIndependentAsThePaperStates) {
  // Section IV-A: the N-SHOT designs rely on delay BOUNDS (Eq. 1), so the
  // unbounded-delay abstraction finds the stale-SOP trespass scenario.
  const sg::StateGraph g = bench_suite::build_benchmark("chu172");
  const core::SynthesisResult nshot = core::synthesize(g);
  const SiVerifyResult result = verify_external_hazard_freeness(g, nshot.circuit);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.violation.empty());
}

TEST(SiVerifierTest, DecomposedComplexGatesAreHazardous) {
  // The complex-gate methods assume each SOP is one atomic gate; its
  // gate-level decomposition is not hazard-free.
  const sg::StateGraph g = bench_suite::build_benchmark("chu172");
  const auto cg = baselines::synthesize_complex_gate(g);
  ASSERT_TRUE(cg.ok());
  const SiVerifyResult result = verify_external_hazard_freeness(g, cg.result->circuit);
  EXPECT_FALSE(result.ok);
}

TEST(SiVerifierTest, DetectsDeadlocksExhaustively) {
  // A circuit whose output can never fire: quiescence with a pending
  // non-input transition is reported.
  const sg::StateGraph g = bench_suite::build_g(bench_suite::staged_cycle_g(
      "stall", {"x"}, {"y"}, {{"x+"}, {"y+"}, {"x-"}, {"y-"}}));
  netlist::Netlist nl("stall");
  const netlist::NetId x = nl.add_net("x");
  const netlist::NetId y = nl.add_net("y");
  const netlist::NetId yb = nl.add_net("y_b");
  const netlist::NetId c0 = nl.add_net("const0");
  const netlist::NetId c1 = nl.add_net("const1");
  nl.add_primary_input(x);
  nl.add_primary_input(c0);
  nl.add_primary_input(c1);
  nl.add_primary_output(y);
  nl.add_gate(netlist::Gate{.type = gatelib::GateType::kMhsFlipFlop,
                            .name = "y_mhs",
                            .inputs = {c0, c0, c1, c1},
                            .outputs = {y, yb}});
  const SiVerifyResult result = verify_external_hazard_freeness(g, nl);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.violation.find("deadlock"), std::string::npos);
}

TEST(SiVerifierTest, StateCapYieldsInconclusive) {
  const sg::StateGraph g = bench_suite::build_benchmark("full");
  const auto syn = baselines::synthesize_syn_like(g);
  ASSERT_TRUE(syn.ok());
  SiVerifyOptions options;
  options.max_states = 3;
  const SiVerifyResult result = verify_external_hazard_freeness(g, syn.result->circuit, options);
  EXPECT_TRUE(result.exhausted);
  EXPECT_FALSE(result.ok);
}

TEST(SiVerifierTest, RejectsOversizedCircuits) {
  // No Table 2 N-SHOT netlist exceeds the verifier's 64-net cap (combuf1
  // is the largest, at 47 nets), so the oversized circuit is a wide staged
  // cycle: one input, then 20 outputs rising and falling one at a time.
  std::vector<std::string> outputs;
  std::vector<std::vector<std::string>> stages = {{"a+"}};
  for (int i = 0; i < 20; ++i) {
    outputs.push_back("o" + std::to_string(i));
    stages.push_back({outputs.back() + "+"});
  }
  stages.push_back({"a-"});
  for (const std::string& o : outputs) stages.push_back({o + "-"});
  const sg::StateGraph g =
      bench_suite::build_g(bench_suite::staged_cycle_g("wide", {"a"}, outputs, stages));
  const core::SynthesisResult nshot = core::synthesize(g);
  ASSERT_GT(nshot.circuit.num_nets(), 64);
  try {
    verify_external_hazard_freeness(g, nshot.circuit);
    FAIL() << "a " << nshot.circuit.num_nets() << "-net circuit passed the 64-net cap";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInputInvalid) << e.what();
  }
}

}  // namespace
}  // namespace nshot::formal
