// The closed-loop trial engine: one production engine plus one reference
// oracle, chosen once per sweep.
//
// Every check of the paper's guarantee — the conformance sweep, the
// stress margins, the fault battery, the adversarial climb, the stressed
// Monte Carlo and the counterexample minimizer — is a loop over
// independent closed-loop trials.  Each sweep holds one TrialEngine built
// from its CompiledNetlist and its `reference_kernels` flag:
//
//  * TrialRunner (production) reuses one Simulator across trials (reset(),
//    never reconstructed), caches the combinational settle of the initial
//    values, walks fanout-of-1 chains inside Simulator::run_burst, and
//    drains commits through a log instead of a std::function observer per
//    commit.
//  * run_reference (oracle) is the straightforward driver: a Simulator
//    compiled and constructed for the one trial, one step() per event,
//    every commit through the observer.
//
// The contract is byte-identity: for every config, TrialRunner::run
// produces the same ConformanceReport — violation strings, simulated-time
// doubles, RNG draw sequence — and the same VCD witness bytes as the
// oracle.  The differential battery in tests/sim_batch_equivalence_test.cpp
// enforces this over fuzzed circuits; check_conformance enforces it per
// trial under --verify-kernels.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/conformance.hpp"
#include "sim/event_sim.hpp"

namespace nshot::sim {

/// The reference oracle: one closed-loop run of `sim` (freshly constructed
/// or reset under config.sim) against `spec`.  Returns a single-run report
/// (runs == 1); when `recorder` is non-null every net change (and the
/// initial values) is captured for VCD export.
ConformanceReport run_reference(const sg::StateGraph& spec, const SpecBinding& binding,
                                Simulator& sim, const ClosedLoopConfig& config,
                                VcdRecorder* recorder = nullptr);

/// The production engine: one closed-loop trial, byte-identical to
/// run_reference, on a Simulator reused across trials.  All arenas (event
/// heap, cached settle, commit log, choice scratch) keep their capacity.
class TrialRunner {
 public:
  explicit TrialRunner(const CompiledNetlist& compiled);

  ConformanceReport run(const sg::StateGraph& spec, const SpecBinding& binding,
                        const ClosedLoopConfig& config, VcdRecorder* recorder = nullptr);

 private:
  void initialize(const std::vector<std::pair<netlist::NetId, bool>>& fixed);

  Simulator sim_;
  // The settled net values of the last initialize() and the fixed values
  // they came from: a sweep binds every trial to the same initial values,
  // so after the first trial the settle is a copy.
  std::vector<std::pair<netlist::NetId, bool>> settle_key_;
  std::vector<std::uint8_t> settled_;
  bool have_settle_ = false;
  std::vector<Simulator::Commit> log_;
  std::vector<sg::TransitionLabel> choices_;
};

/// The engine a sweep runs its trials on: TrialRunner, or the reference
/// oracle when built with `reference_kernels`.  One per thread — run()
/// reuses the runner's simulator.
class TrialEngine {
 public:
  TrialEngine(const CompiledNetlist& compiled, bool reference_kernels);

  /// One closed-loop trial; a single-run report (runs == 1).
  ConformanceReport run(const sg::StateGraph& spec, const SpecBinding& binding,
                        const ClosedLoopConfig& config, VcdRecorder* recorder = nullptr);

  const CompiledNetlist& compiled() const { return *compiled_; }

 private:
  const CompiledNetlist* compiled_;
  std::optional<TrialRunner> runner_;  // empty: the reference oracle
};

}  // namespace nshot::sim
