// Differential fuzz battery for the trial engine (sim/trial_engine.hpp):
// over 64 seeded random semi-modular circuits, the production TrialRunner
// must produce byte-identical results to the reference oracle — same
// verdicts, same report fingerprints (every counter and every
// simulated-time double), same violation strings, and the same VCD
// witness bytes per trial.  This is the test the engine's whole contract
// hangs on; the CI matrix runs it under ASan and TSan.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_suite/generators.hpp"
#include "netlist/transform.hpp"
#include "nshot/synthesis.hpp"
#include "sim/conformance.hpp"
#include "sim/trial_engine.hpp"
#include "sim/vcd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nshot {
namespace {

struct Generated {
  sg::StateGraph graph;
  core::SynthesisResult result;
};

/// One seeded random semi-modular controller, synthesized.  Not every
/// draw is implementable, so the draw is redone on the derived streams
/// run_seed(seed, k), k = 0, 1, ..., until one is: every case runs a
/// circuit instead of skipping, and the same seed always lands on the
/// same circuit.
Generated generate(int seed) {
  constexpr int kMaxDraws = 64;
  for (int k = 0; k < kMaxDraws; ++k) {
    bench_suite::RandomStgOptions options;
    options.seed = run_seed(static_cast<std::uint64_t>(seed), k);
    sg::StateGraph graph = bench_suite::build_g(bench_suite::random_semimodular_g(options));
    if (graph.noninput_signals().empty()) continue;
    try {
      core::SynthesisResult result = core::synthesize(graph);
      return Generated{std::move(graph), std::move(result)};
    } catch (const Error&) {
      // Not implementable: draw again.
    }
  }
  throw std::runtime_error("no implementable draw for seed " + std::to_string(seed));
}

/// Per-trial closed-loop config, shaped like check_conformance's sweep.
sim::ClosedLoopConfig trial_config(std::uint64_t base_seed, int r) {
  sim::ClosedLoopConfig config;
  config.sim.seed = run_seed(base_seed, r);
  config.sim.randomize_delays = true;
  config.sim.max_events = 200000;
  config.max_transitions = 60;
  // Vary the environment shape across trials: decoupled env stream,
  // fundamental mode, tighter reaction windows.
  if (r % 3 == 1) config.env_seed = run_seed(base_seed ^ 0x5eedULL, r);
  if (r % 3 == 2) config.fundamental_mode = true;
  if (r % 2 == 1) {
    config.input_delay_min = 0.5;
    config.input_delay_max = 4.0;
  }
  return config;
}

/// Field-by-field fingerprint comparison; doubles compare EXACTLY — the
/// contract is byte identity, not tolerance.
void expect_same_report(const sim::ConformanceReport& got, const sim::ConformanceReport& want,
                        const std::string& label) {
  EXPECT_EQ(got.runs, want.runs) << label;
  EXPECT_EQ(got.external_transitions, want.external_transitions) << label;
  EXPECT_EQ(got.internal_toggles, want.internal_toggles) << label;
  EXPECT_EQ(got.absorbed_pulses, want.absorbed_pulses) << label;
  EXPECT_EQ(got.simulated_time, want.simulated_time) << label;
  EXPECT_EQ(got.deadlocks, want.deadlocks) << label;
  EXPECT_EQ(got.budget_exhausted, want.budget_exhausted) << label;
  ASSERT_EQ(got.violations.size(), want.violations.size()) << label;
  for (std::size_t i = 0; i < want.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].seed, want.violations[i].seed) << label;
    EXPECT_EQ(got.violations[i].time, want.violations[i].time) << label;
    EXPECT_EQ(got.violations[i].kind, want.violations[i].kind) << label;
    EXPECT_EQ(got.violations[i].description, want.violations[i].description) << label;
  }
}

class SimBatchEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SimBatchEquivalenceTest, TrialRunnerMatchesReferencePerTrial) {
  const Generated gen = generate(GetParam());
  const netlist::Netlist& circuit = gen.result.circuit;
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(gen.graph, circuit);
  sim::TrialRunner runner(compiled);

  const std::uint64_t base_seed = 0xbeefULL + static_cast<std::uint64_t>(GetParam());
  for (int r = 0; r < 6; ++r) {
    const sim::ClosedLoopConfig config = trial_config(base_seed, r);
    const std::string label =
        "circuit " + std::to_string(GetParam()) + " trial " + std::to_string(r);

    // Deepest oracle: the uncompiled per-trial reference simulator.
    sim::VcdRecorder want_vcd(circuit);
    const sim::ConformanceReport want = sim::run_closed_loop(gen.graph, circuit, config, &want_vcd);

    sim::VcdRecorder got_vcd(circuit);
    const sim::ConformanceReport got = runner.run(gen.graph, binding, config, &got_vcd);

    expect_same_report(got, want, label);
    EXPECT_EQ(got_vcd.write(), want_vcd.write()) << "VCD witness diverged: " << label;
  }
}

TEST_P(SimBatchEquivalenceTest, TrialEngineMatchesReferenceAcrossTrials) {
  const Generated gen = generate(GetParam());
  const netlist::Netlist& circuit = gen.result.circuit;
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(gen.graph, circuit);

  // One production engine carries a 64-trial sweep whose configs repeat
  // back to back (trials 24.. replay 0..), so nothing a trial leaves
  // behind — cached settle, queue arena, commit log — may leak into the
  // next; the oracle engine compiles and constructs per trial.
  const std::uint64_t base_seed = 0xfeedULL + static_cast<std::uint64_t>(GetParam());
  sim::TrialEngine engine(compiled, /*reference_kernels=*/false);
  sim::TrialEngine oracle(compiled, /*reference_kernels=*/true);
  for (int r = 0; r < 64; ++r) {
    const sim::ClosedLoopConfig config = trial_config(base_seed, r % 24);
    expect_same_report(engine.run(gen.graph, binding, config),
                       oracle.run(gen.graph, binding, config),
                       "circuit " + std::to_string(GetParam()) + " trial " + std::to_string(r));
  }
}

TEST_P(SimBatchEquivalenceTest, FaultedConfigsMatchReference) {
  const Generated gen = generate(GetParam());
  const netlist::Netlist& circuit = gen.result.circuit;
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(gen.graph, circuit);
  sim::TrialRunner runner(compiled);

  // Stuck-at + glitch configs go through the single-step injection path
  // instead of the burst loop; both engines must still agree byte for
  // byte (violations included — faulted runs are EXPECTED to misbehave).
  // release_net only snaps back simple-gate outputs, so pick nets with a
  // combinational driver (the same restriction faults::to_config obeys).
  std::vector<netlist::NetId> driven;
  for (netlist::NetId n = 0; n < circuit.num_nets() && driven.size() < 2; ++n) {
    const netlist::GateId g = compiled.driver(n);
    if (g < 0) continue;
    const gatelib::GateType type = circuit.gate(g).type;
    if (type == gatelib::GateType::kAnd || type == gatelib::GateType::kOr ||
        type == gatelib::GateType::kInv || type == gatelib::GateType::kBuf)
      driven.push_back(n);
  }
  if (driven.size() < 2) GTEST_SKIP() << "not enough driven nets";

  const std::uint64_t base_seed = 0xfaceULL + static_cast<std::uint64_t>(GetParam());
  for (int r = 0; r < 3; ++r) {
    sim::ClosedLoopConfig config = trial_config(base_seed, r);
    config.forces.emplace_back(driven[0], (r % 2) != 0);
    sim::TimedInjection hit;
    hit.time = 5.0;
    hit.net = driven[1];
    hit.value = true;
    sim::TimedInjection drop = hit;
    drop.time = 5.0 + 0.05 * (r + 1);
    drop.release = true;
    config.injections = {hit, drop};

    const std::string label =
        "circuit " + std::to_string(GetParam()) + " faulted trial " + std::to_string(r);
    sim::VcdRecorder want_vcd(circuit);
    const sim::ConformanceReport want =
        sim::run_closed_loop(gen.graph, circuit, config, &want_vcd);
    sim::VcdRecorder got_vcd(circuit);
    const sim::ConformanceReport got = runner.run(gen.graph, binding, config, &got_vcd);
    expect_same_report(got, want, label);
    EXPECT_EQ(got_vcd.write(), want_vcd.write()) << "VCD witness diverged: " << label;
  }
}

/// Re-route every combinational gate output through a `length`-stage
/// BUF or INV ladder (alternating per gate; INV ladders keep even parity
/// so values are preserved).  Every ladder net has exactly one reader, so
/// the compiled netlist fuses the whole ladder into one chain — this is
/// the circuit family that maximally exercises run_burst's hold register.
/// The original output net keeps its name, so bindings and observables
/// are untouched.
netlist::Netlist with_ladders(const netlist::Netlist& source, int length) {
  int counter = 0;
  return netlist::transform_netlist(
      source, [&](const netlist::Gate& gate, netlist::Netlist& out) -> std::optional<netlist::Gate> {
        const bool simple = gate.type == gatelib::GateType::kAnd ||
                            gate.type == gatelib::GateType::kOr ||
                            gate.type == gatelib::GateType::kInv ||
                            gate.type == gatelib::GateType::kBuf;
        if (!simple || gate.feedback_cut || gate.outputs.size() != 1) return gate;
        const std::string prefix = "lad" + std::to_string(counter) + "_";
        const bool invert = (counter++ % 2) != 0;  // INV ladders need even length
        const int stages = invert ? (length + 1) / 2 * 2 : length;
        netlist::Gate head = gate;
        netlist::NetId prev = out.add_net(prefix + "0");
        head.outputs = {prev};
        out.add_gate(std::move(head));
        for (int i = 0; i < stages; ++i) {
          const bool last = i + 1 == stages;
          const netlist::NetId next =
              last ? gate.outputs[0] : out.add_net(prefix + std::to_string(i + 1));
          netlist::Gate link;
          link.type = invert ? gatelib::GateType::kInv : gatelib::GateType::kBuf;
          link.name = prefix + "g" + std::to_string(i);
          link.inputs = {prev};
          link.outputs = {next};
          out.add_gate(std::move(link));
          prev = next;
        }
        return std::nullopt;
      });
}

TEST_P(SimBatchEquivalenceTest, ChainHeavyCircuitsMatchReference) {
  const Generated gen = generate(GetParam());
  // Long ladders on every combinational output: the fused-chain walk now
  // carries most of the event traffic instead of the queue.
  const netlist::Netlist circuit = with_ladders(gen.result.circuit, 6);
  circuit.check_well_formed();
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  ASSERT_GE(compiled.longest_fused_chain(), std::size_t{6});
  const sim::SpecBinding binding(gen.graph, circuit);
  sim::TrialRunner runner(compiled);

  const std::uint64_t base_seed = 0xcadeULL + static_cast<std::uint64_t>(GetParam());
  for (int r = 0; r < 4; ++r) {
    const sim::ClosedLoopConfig config = trial_config(base_seed, r);
    const std::string label =
        "laddered circuit " + std::to_string(GetParam()) + " trial " + std::to_string(r);
    sim::VcdRecorder want_vcd(circuit);
    const sim::ConformanceReport want = sim::run_closed_loop(gen.graph, circuit, config, &want_vcd);
    sim::VcdRecorder got_vcd(circuit);
    const sim::ConformanceReport got = runner.run(gen.graph, binding, config, &got_vcd);
    expect_same_report(got, want, label);
    EXPECT_EQ(got_vcd.write(), want_vcd.write()) << "VCD witness diverged: " << label;
  }
}

TEST_P(SimBatchEquivalenceTest, FaultedChainHeavyCircuitsMatchReference) {
  const Generated gen = generate(GetParam());
  const netlist::Netlist circuit = with_ladders(gen.result.circuit, 6);
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(gen.graph, circuit);
  sim::TrialRunner runner(compiled);

  // Force/inject ON the ladder nets themselves: a forced mid-chain net
  // pins a fused link, so the inline walk must agree with the reference
  // about commits that never happen and about the release snap-back.
  std::vector<netlist::NetId> ladder_nets;
  for (netlist::NetId n = 0; n < circuit.num_nets() && ladder_nets.size() < 2; ++n)
    if (circuit.net_name(n).compare(0, 3, "lad") == 0 && compiled.driver(n) >= 0)
      ladder_nets.push_back(n);
  if (ladder_nets.size() < 2) GTEST_SKIP() << "no ladder nets";

  const std::uint64_t base_seed = 0xdeafULL + static_cast<std::uint64_t>(GetParam());
  for (int r = 0; r < 3; ++r) {
    sim::ClosedLoopConfig config = trial_config(base_seed, r);
    config.forces.emplace_back(ladder_nets[0], (r % 2) != 0);
    sim::TimedInjection hit;
    hit.time = 4.0 + 0.5 * r;
    hit.net = ladder_nets[1];
    hit.value = (r % 2) == 0;
    sim::TimedInjection drop = hit;
    drop.time = hit.time + 0.25;
    drop.release = true;
    config.injections = {hit, drop};

    const std::string label =
        "laddered circuit " + std::to_string(GetParam()) + " faulted trial " + std::to_string(r);
    sim::VcdRecorder want_vcd(circuit);
    const sim::ConformanceReport want = sim::run_closed_loop(gen.graph, circuit, config, &want_vcd);
    sim::VcdRecorder got_vcd(circuit);
    const sim::ConformanceReport got = runner.run(gen.graph, binding, config, &got_vcd);
    expect_same_report(got, want, label);
    EXPECT_EQ(got_vcd.write(), want_vcd.write()) << "VCD witness diverged: " << label;
  }
}

// 64 seeded circuits: the battery the acceptance criteria name.
INSTANTIATE_TEST_SUITE_P(Seeds, SimBatchEquivalenceTest, ::testing::Range(1, 65));

}  // namespace
}  // namespace nshot
