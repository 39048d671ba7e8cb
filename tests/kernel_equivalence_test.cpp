// Kernel equivalence tests: every compiled / hashed / sorted-vector hot
// path introduced by the kernel layer must be byte-identical to the
// original reference implementation it replaced.  The reference paths are
// compiled in behind options flags (ConformanceOptions::reference_kernels,
// StressOptions::reference_kernels, ExactOptions inherited reference_kernels,
// ReachabilityOptions::reference_maps, compute_regions_reference), so the
// comparison runs over randomly generated controllers in one binary.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_suite/generators.hpp"
#include "csc/csc_solver.hpp"
#include "faults/margins.hpp"
#include "faults/stress.hpp"
#include "logic/exact.hpp"
#include "logic/verify.hpp"
#include "nshot/synthesis.hpp"
#include "nshot/trigger.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "sim/conformance.hpp"
#include "sim/trial_engine.hpp"
#include "stg/g_format.hpp"
#include "stg/reachability.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nshot {
namespace {

/// Random staged-cycle controller (same generator family as
/// parallel_determinism_test.cpp).
std::string random_staged_cycle(Rng& rng, int index) {
  const int num_signals = 3 + static_cast<int>(rng.next_below(6));
  std::vector<std::string> names, inputs, outputs;
  for (int i = 0; i < num_signals; ++i) {
    const std::string name = "x" + std::to_string(i);
    names.push_back(name);
    (rng.next_bool(0.5) ? inputs : outputs).push_back(name);
  }
  if (inputs.empty()) {
    inputs.push_back(outputs.back());
    outputs.pop_back();
  }
  if (outputs.empty()) {
    outputs.push_back(inputs.back());
    inputs.pop_back();
  }
  std::vector<std::vector<std::string>> rising;
  std::vector<std::string> pool = names;
  while (!pool.empty()) {
    const std::size_t take = 1 + rng.next_below(std::min<std::size_t>(pool.size(), 3));
    std::vector<std::string> stage;
    for (std::size_t i = 0; i < take; ++i) {
      stage.push_back(pool.back() + "+");
      pool.pop_back();
    }
    rising.push_back(std::move(stage));
  }
  std::vector<std::vector<std::string>> stages = rising;
  for (const auto& stage : rising) {
    std::vector<std::string> falling;
    for (const std::string& t : stage) falling.push_back(t.substr(0, t.size() - 1) + "-");
    stages.push_back(std::move(falling));
  }
  return bench_suite::staged_cycle_g("keq" + std::to_string(index), inputs, outputs, stages);
}

/// Draw `k` of the seed's stream; draw 0 is the seed's own controller.
std::string random_g_text(int seed, int k = 0) {
  Rng rng(run_seed(static_cast<std::uint64_t>(seed) * 0x9E3779B9ULL + 17, k));
  return random_staged_cycle(rng, seed);
}

struct Generated {
  sg::StateGraph graph;
  core::SynthesisResult result;
};

/// One seeded random controller, synthesized.  Not every draw has a
/// non-input signal or is implementable (e.g. a CSC conflict), so the
/// draw is redone on the derived streams k = 1, 2, ... until one is: every
/// case runs a circuit instead of skipping, and a seed whose first draw
/// works keeps it.
Generated generate(int seed) {
  constexpr int kMaxDraws = 64;
  for (int k = 0; k < kMaxDraws; ++k) {
    try {
      sg::StateGraph graph = bench_suite::build_g(random_g_text(seed, k));
      if (graph.noninput_signals().empty()) continue;
      core::SynthesisResult result = core::synthesize(graph);
      return Generated{std::move(graph), std::move(result)};
    } catch (const Error&) {
      // Not implementable: draw again.
    }
  }
  throw std::runtime_error("no implementable draw for seed " + std::to_string(seed));
}

std::string conformance_fingerprint(const sim::ConformanceReport& r) {
  std::string out = std::to_string(r.runs) + "/" + std::to_string(r.external_transitions) + "/" +
                    std::to_string(r.internal_toggles) + "/" + std::to_string(r.absorbed_pulses) +
                    "/" + std::to_string(r.simulated_time) + "/" + std::to_string(r.deadlocks) +
                    "/" + std::to_string(r.budget_exhausted);
  for (const sim::ConformanceViolation& v : r.violations)
    out += "|" + std::to_string(v.seed) + "@" + std::to_string(v.time) + ":" + v.description;
  return out;
}

/// Full structural fingerprint of a state graph: states with codes and
/// names, every edge, the initial state, signal table.
std::string sg_fingerprint(const sg::StateGraph& g) {
  std::string out = "init=" + std::to_string(g.initial()) + ";";
  for (int i = 0; i < g.num_signals(); ++i)
    out += g.signal(i).name + (g.is_input(i) ? "?" : "!") + ",";
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    out += "\n" + std::to_string(s) + ":" + g.state_name(s) + "=" + std::to_string(g.code(s));
    for (const sg::Edge& e : g.out_edges(s))
      out += " --" + g.label_name(e.label) + "--> " + std::to_string(e.target);
  }
  return out;
}

class KernelEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelEquivalenceTest, ConformanceCompiledMatchesReference) {
  const Generated gen = generate(GetParam());

  sim::ConformanceOptions options;
  options.seed = static_cast<std::uint64_t>(GetParam()) * 13 + 7;
  options.runs = 10;
  options.max_transitions = 60;

  options.reference_kernels = true;
  const sim::ConformanceReport reference =
      sim::check_conformance(gen.graph, gen.result.circuit, options);
  options.reference_kernels = false;
  const sim::ConformanceReport compiled =
      sim::check_conformance(gen.graph, gen.result.circuit, options);

  EXPECT_EQ(conformance_fingerprint(reference), conformance_fingerprint(compiled));
}

TEST_P(KernelEquivalenceTest, SimulatorReuseMatchesFreshConstruction) {
  // The production engine resets one Simulator across runs; it must
  // reproduce what a fresh Simulator produces for each run — reset() has
  // to be equivalent to reconstruction.
  const Generated gen = generate(GetParam());

  const sim::CompiledNetlist compiled(gen.result.circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(gen.graph, gen.result.circuit);
  sim::TrialEngine engine(compiled, /*reference_kernels=*/false);

  for (int r = 0; r < 4; ++r) {
    sim::ClosedLoopConfig config;
    config.sim.seed = run_seed(static_cast<std::uint64_t>(GetParam()) * 13 + 7, r);
    config.sim.randomize_delays = true;
    config.max_transitions = 60;
    const sim::ConformanceReport fresh =
        sim::run_closed_loop(gen.graph, gen.result.circuit, config);
    const sim::ConformanceReport reused = engine.run(gen.graph, binding, config);
    EXPECT_EQ(conformance_fingerprint(fresh), conformance_fingerprint(reused)) << "run " << r;
  }
}

TEST_P(KernelEquivalenceTest, ProbedRunMatchesOracle) {
  // The sweeps' probed runs draw their delays and Eq. 1 slacks from the
  // compiled netlist; the oracle form recomputes both from the netlist.
  const Generated gen = generate(GetParam());
  const netlist::Netlist& circuit = gen.result.circuit;
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(gen.graph, circuit);
  sim::TrialEngine engine(compiled, /*reference_kernels=*/false);
  faults::MarginProbe probe(circuit, gatelib::GateLibrary::standard());

  faults::ScenarioOptions options;
  options.max_transitions = 60;
  for (int r = 0; r < 3; ++r) {
    faults::FaultScenario scenario;
    scenario.seed = run_seed(static_cast<std::uint64_t>(GetParam()) * 11 + 5, r);
    const faults::ProbedRun want = faults::run_probed(gen.graph, circuit, scenario, options);
    const faults::ProbedRun got =
        faults::run_probed(gen.graph, binding, scenario, options, engine, probe);
    EXPECT_EQ(conformance_fingerprint(got.report), conformance_fingerprint(want.report))
        << "run " << r;
    EXPECT_EQ(got.min_slack, want.min_slack) << "run " << r;
    ASSERT_EQ(got.omega.size(), want.omega.size());
    for (std::size_t k = 0; k < want.omega.size(); ++k) {
      EXPECT_EQ(got.omega[k].fired, want.omega[k].fired) << "run " << r << " cell " << k;
      EXPECT_EQ(got.omega[k].absorbed, want.omega[k].absorbed) << "run " << r << " cell " << k;
      EXPECT_EQ(got.omega[k].min_slack(), want.omega[k].min_slack())
          << "run " << r << " cell " << k;
    }
    ASSERT_EQ(got.eq1.size(), want.eq1.size());
    for (std::size_t k = 0; k < want.eq1.size(); ++k) {
      EXPECT_EQ(got.eq1[k].slack_set, want.eq1[k].slack_set) << "run " << r << " cell " << k;
      EXPECT_EQ(got.eq1[k].slack_reset, want.eq1[k].slack_reset) << "run " << r << " cell " << k;
    }
  }
}

TEST_P(KernelEquivalenceTest, StressJsonCompiledMatchesReference) {
  const Generated gen = generate(GetParam());

  faults::StressOptions options;
  options.seed = static_cast<std::uint64_t>(GetParam()) * 5 + 3;
  options.margin_runs = 3;
  options.run.max_transitions = 60;
  options.adversarial.restarts = 2;
  options.adversarial.iterations = 15;
  options.adversarial.run.max_transitions = 60;

  options.reference_kernels = true;
  const std::string reference = faults::stress_report_json(
      faults::run_stress(gen.graph, gen.result.circuit, "keq", options));
  options.reference_kernels = false;
  const std::string compiled = faults::stress_report_json(
      faults::run_stress(gen.graph, gen.result.circuit, "keq", options));

  EXPECT_EQ(reference, compiled);
}

TEST_P(KernelEquivalenceTest, ExactMinimizeMatchesReferenceSets) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 29 + 11);
  const int num_inputs = 3 + static_cast<int>(rng.next_below(5));
  const int num_outputs = 1 + static_cast<int>(rng.next_below(3));
  logic::TwoLevelSpec spec(num_inputs, num_outputs);
  const std::uint64_t space = 1ULL << num_inputs;
  for (int o = 0; o < num_outputs; ++o) {
    for (std::uint64_t m = 0; m < space; ++m) {
      const double roll = rng.next_double(0.0, 1.0);
      if (roll < 0.35)
        spec.add_on(o, m);
      else if (roll < 0.75)
        spec.add_off(o, m);
    }
  }
  spec.normalize();

  logic::ExactOptions options;
  options.reference_kernels = true;
  const logic::Cover reference = logic::exact_minimize(spec, options);
  const auto reference_primes = logic::generate_primes(spec, 0, options);
  options.reference_kernels = false;
  const logic::Cover hashed = logic::exact_minimize(spec, options);
  const auto hashed_primes = logic::generate_primes(spec, 0, options);

  EXPECT_EQ(reference.to_string(), hashed.to_string());
  ASSERT_EQ(reference_primes.has_value(), hashed_primes.has_value());
  if (reference_primes) {
    ASSERT_EQ(reference_primes->size(), hashed_primes->size());
    for (std::size_t i = 0; i < reference_primes->size(); ++i)
      EXPECT_EQ((*reference_primes)[i].to_string(), (*hashed_primes)[i].to_string()) << i;
  }
}

TEST_P(KernelEquivalenceTest, ReachabilityMatchesReferenceMaps) {
  const stg::Stg net = stg::parse_g(random_g_text(GetParam()));

  stg::ReachabilityOptions options;
  options.reference_maps = true;
  const sg::StateGraph reference = stg::build_state_graph(net, options);
  const std::vector<bool> reference_values = stg::infer_initial_values(net, options);
  const std::vector<stg::TransitionId> reference_dead = stg::dead_transitions(net, options);
  options.reference_maps = false;
  const sg::StateGraph hashed = stg::build_state_graph(net, options);
  const std::vector<bool> hashed_values = stg::infer_initial_values(net, options);
  const std::vector<stg::TransitionId> hashed_dead = stg::dead_transitions(net, options);

  EXPECT_EQ(sg_fingerprint(reference), sg_fingerprint(hashed));
  EXPECT_EQ(reference_values, hashed_values);
  EXPECT_EQ(reference_dead, hashed_dead);
}

TEST(KernelEquivalenceFixedTest, ReachabilityWithDummiesMatchesReferenceMaps) {
  // Dummy saturation walks its own marking map; exercise it explicitly.
  const stg::Stg net = stg::parse_g(
      ".model dum\n.inputs a\n.outputs b\n.dummy d\n.graph\n"
      "a+ d\nd b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n");
  stg::ReachabilityOptions options;
  options.reference_maps = true;
  const sg::StateGraph reference = stg::build_state_graph(net, options);
  options.reference_maps = false;
  const sg::StateGraph hashed = stg::build_state_graph(net, options);
  EXPECT_EQ(sg_fingerprint(reference), sg_fingerprint(hashed));
}

TEST_P(KernelEquivalenceTest, RegionsMatchReference) {
  const Generated gen = generate(GetParam());

  for (const sg::SignalId a : gen.graph.noninput_signals()) {
    const sg::SignalRegions fast = sg::compute_regions(gen.graph, a);
    const sg::SignalRegions reference = sg::compute_regions_reference(gen.graph, a);
    EXPECT_EQ(reference.to_string(gen.graph), fast.to_string(gen.graph)) << "signal " << a;
    for (const sg::ExcitationRegion& er : fast.regions) {
      EXPECT_TRUE(sg::verify_output_trapping(gen.graph, er));
      EXPECT_TRUE(sg::verify_trigger_reachability(gen.graph, er));
    }
  }
}

TEST_P(KernelEquivalenceTest, CodingChecksMatchOrderedReference) {
  // check_csc / check_usc / detonant_states run over sorted vectors,
  // hashed maps and excitation bit planes; compare against the compiled-in
  // ordered-container reference implementations of the originals.
  const Generated gen = generate(GetParam());
  const sg::StateGraph& g = gen.graph;

  EXPECT_EQ(sg::check_usc_reference(g).violations, sg::check_usc(g).violations);
  EXPECT_EQ(sg::check_csc_reference(g).violations, sg::check_csc(g).violations);
  EXPECT_EQ(sg::count_csc_conflicts_reference(g), sg::count_csc_conflicts(g));
  EXPECT_EQ(sg::count_csc_conflicts(g), sg::check_csc(g).violations.size());
  for (const sg::SignalId a : g.noninput_signals())
    EXPECT_EQ(sg::detonant_states_reference(g, a), sg::detonant_states(g, a)) << "signal " << a;
}

TEST_P(KernelEquivalenceTest, TriggerEnforcementMatchesReferenceMembership) {
  // Trigger-cube membership was rewritten from a cube x codes minterm scan
  // to one supercube-containment test per cube; the repair decisions and
  // the resulting cover must be identical.  Thin the cover cube by cube so
  // the not-covered repair path runs too.
  const Generated gen = generate(GetParam());
  const std::vector<sg::SignalRegions> regions = sg::compute_all_regions(gen.graph);

  auto report_fingerprint = [&](const core::TriggerReport& r) {
    std::string out = std::to_string(r.cubes_added);
    for (const core::TriggerIssue& issue : r.issues) out += "|" + issue.describe(gen.graph);
    return out;
  };

  const std::size_t cover_size = gen.result.cover.size();
  for (std::size_t drop = 0; drop <= cover_size; ++drop) {
    logic::Cover thinned = gen.result.cover;
    if (drop < cover_size) thinned.erase(drop);

    logic::Cover reference_cover = thinned;
    logic::Cover fast_cover = thinned;
    core::TriggerOptions options;
    options.reference_kernels = true;
    const core::TriggerReport reference = core::enforce_trigger_requirement(
        gen.graph, regions, gen.result.derived, reference_cover, options);
    options.reference_kernels = false;
    const core::TriggerReport fast = core::enforce_trigger_requirement(
        gen.graph, regions, gen.result.derived, fast_cover, options);

    EXPECT_EQ(report_fingerprint(reference), report_fingerprint(fast)) << "drop " << drop;
    EXPECT_EQ(reference_cover.to_string(), fast_cover.to_string()) << "drop " << drop;
  }
}

TEST_P(KernelEquivalenceTest, VerifyCoverMatchesReference) {
  // verify_cover was rewritten bit-sliced over code planes; both the ok
  // verdict and the first-violation diagnostic must match the
  // minterm-at-a-time reference, including on deliberately broken covers.
  const Generated gen = generate(GetParam());
  const logic::TwoLevelSpec& spec = gen.result.derived.spec;

  auto compare = [&spec](const logic::Cover& cover, const std::string& what) {
    const logic::VerifyResult reference = logic::verify_cover_reference(spec, cover);
    const logic::VerifyResult fast = logic::verify_cover(spec, cover);
    EXPECT_EQ(reference.ok, fast.ok) << what;
    EXPECT_EQ(reference.message, fast.message) << what;
  };

  compare(gen.result.cover, "intact cover");
  for (std::size_t drop = 0; drop < gen.result.cover.size(); ++drop) {
    logic::Cover broken = gen.result.cover;
    broken.erase(drop);
    compare(broken, "cover without cube " + std::to_string(drop));
  }
  // A universal cube on every output trips the off-set check.
  logic::Cover greedy = gen.result.cover;
  greedy.add(logic::Cube::full(spec.num_inputs(),
                               (spec.num_outputs() >= 64)
                                   ? ~0ULL
                                   : ((1ULL << spec.num_outputs()) - 1)));
  compare(greedy, "cover with a universal cube");
}

TEST_P(KernelEquivalenceTest, CscSolverMatchesReferenceKernels) {
  // The solver's conflict counting (and the reachability it drives) runs
  // count-only and mask-compiled; the chosen insertions and the final
  // graph must be identical to the reference-kernel run.
  const stg::Stg net = stg::parse_g(random_g_text(GetParam()));

  csc::CscSolveOptions options;
  options.max_signals = 2;
  options.reference_kernels = true;
  std::optional<csc::CscSolveResult> reference;
  try {
    reference = csc::solve_csc(net, options);
  } catch (const Error&) {
    GTEST_SKIP() << "draw is not a consistent semi-modular specification";
  }
  options.reference_kernels = false;
  const std::optional<csc::CscSolveResult> fast = csc::solve_csc(net, options);

  ASSERT_EQ(reference.has_value(), fast.has_value());
  if (reference) {
    EXPECT_EQ(reference->signals_added, fast->signals_added);
    EXPECT_EQ(reference->insertions, fast->insertions);
    EXPECT_EQ(sg_fingerprint(reference->graph), sg_fingerprint(fast->graph));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalenceTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace nshot
