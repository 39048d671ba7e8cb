// Thread-determinism tests for the jobs knobs added by the thread×word
// fusion work: every kernel that accepts a worker count must be
// byte-identical at jobs=1 (serial) and jobs=8 (threaded) — state graphs
// from the sharded reachability BFS, region structures, CSC/USC verdicts,
// bit planes, detonant scans and cover verification.  The suite runs
// under ThreadSanitizer in CI, so it doubles as the race detector for the
// sharded frontier merge.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bench_suite/generators.hpp"
#include "logic/verify.hpp"
#include "nshot/synthesis.hpp"
#include "sg/bitset.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "stg/g_format.hpp"
#include "stg/reachability.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nshot {
namespace {

constexpr int kJobs = 8;

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

/// Draw `k` of the seed's stream; draw 0 is the seed's own net.
stg::Stg random_net(int seed, int k = 0) {
  bench_suite::RandomStgOptions gen;
  gen.seed = run_seed(static_cast<std::uint64_t>(seed), k);
  return stg::parse_g(bench_suite::random_semimodular_g(gen));
}

struct Synthesized {
  sg::StateGraph graph;
  core::SynthesisResult result;
};

/// The seed's first draw that has a non-input signal and synthesizes; the
/// others are redone on the derived streams k = 1, 2, ..., so every case
/// checks a cover instead of skipping.
Synthesized synthesized_net(int seed) {
  constexpr int kMaxDraws = 64;
  for (int k = 0; k < kMaxDraws; ++k) {
    sg::StateGraph g = stg::build_state_graph(random_net(seed, k));
    if (g.noninput_signals().empty()) continue;
    try {
      core::SynthesisResult result = core::synthesize(g);
      return Synthesized{std::move(g), std::move(result)};
    } catch (const Error&) {
      // Not implementable: draw again.
    }
  }
  throw std::runtime_error("no implementable draw for seed " + std::to_string(seed));
}

class ScaleDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ScaleDeterminismTest, ShardedReachabilityMatchesSerial) {
  const stg::Stg net = random_net(GetParam());
  stg::ReachabilityOptions serial;
  stg::ReachabilityOptions sharded;
  sharded.jobs = kJobs;
  const sg::StateGraph reference = stg::build_state_graph(net, serial);
  const sg::StateGraph threaded = stg::build_state_graph(net, sharded);
  EXPECT_EQ(sg_fingerprint(reference), sg_fingerprint(threaded));
}

TEST_P(ScaleDeterminismTest, ShardedReachabilityThrowsSerialDiagnostics) {
  // A state cap below the reachable count must produce the same error
  // code and message from the sharded replay as from the serial loop —
  // the replay rethrows at the exact serial throw position.
  const stg::Stg net = random_net(GetParam());
  stg::ReachabilityOptions serial;
  serial.max_states = 3;
  stg::ReachabilityOptions sharded = serial;
  sharded.jobs = kJobs;

  std::string serial_error, sharded_error;
  try {
    stg::build_state_graph(net, serial);
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
    serial_error = e.message();
  }
  try {
    stg::build_state_graph(net, sharded);
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
    sharded_error = e.message();
  }
  EXPECT_EQ(serial_error, sharded_error);
  // Every generated net has more than 3 states, so both must throw.
  EXPECT_FALSE(serial_error.empty());
}

TEST_P(ScaleDeterminismTest, PlaneBuildersMatchSerial) {
  const sg::StateGraph g = stg::build_state_graph(random_net(GetParam()));
  const std::vector<sg::StateSet> values1 = sg::all_value_sets(g, 1);
  const std::vector<sg::StateSet> valuesN = sg::all_value_sets(g, kJobs);
  const std::vector<sg::StateSet> excited1 = sg::all_excited_sets(g, 1);
  const std::vector<sg::StateSet> excitedN = sg::all_excited_sets(g, kJobs);
  ASSERT_EQ(values1.size(), valuesN.size());
  ASSERT_EQ(excited1.size(), excitedN.size());
  for (int x = 0; x < g.num_signals(); ++x) {
    const std::size_t xi = static_cast<std::size_t>(x);
    EXPECT_EQ(values1[xi].to_vector(), valuesN[xi].to_vector()) << "value plane " << x;
    EXPECT_EQ(excited1[xi].to_vector(), excitedN[xi].to_vector()) << "excited plane " << x;
    EXPECT_EQ(sg::value_set(g, x, 1).to_vector(), sg::value_set(g, x, kJobs).to_vector());
    EXPECT_EQ(sg::excited_set(g, x, 1).to_vector(), sg::excited_set(g, x, kJobs).to_vector());
  }
}

TEST_P(ScaleDeterminismTest, RegionsMatchSerial) {
  const sg::StateGraph g = stg::build_state_graph(random_net(GetParam()));
  const std::vector<sg::SignalRegions> serial = sg::compute_all_regions(g, 1);
  const std::vector<sg::SignalRegions> threaded = sg::compute_all_regions(g, kJobs);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i].to_string(g), threaded[i].to_string(g)) << "signal index " << i;
}

TEST_P(ScaleDeterminismTest, CodingPropertiesMatchSerial) {
  const sg::StateGraph g = stg::build_state_graph(random_net(GetParam()));
  EXPECT_EQ(sg::check_csc(g, 1).summary(), sg::check_csc(g, kJobs).summary());
  EXPECT_EQ(sg::check_usc(g, 1).summary(), sg::check_usc(g, kJobs).summary());
  EXPECT_EQ(sg::count_csc_conflicts(g, 1), sg::count_csc_conflicts(g, kJobs));
  for (const sg::SignalId a : g.noninput_signals())
    EXPECT_EQ(sg::detonant_states(g, a, 1), sg::detonant_states(g, a, kJobs)) << "signal " << a;
  // The batched scan must agree with the per-signal entry point at any
  // worker count (it shares one plane sweep; entry i is signal_i's scan).
  const std::vector<std::vector<sg::StateId>> batched = sg::all_detonant_states(g, kJobs);
  ASSERT_EQ(batched.size(), g.noninput_signals().size());
  for (std::size_t k = 0; k < batched.size(); ++k)
    EXPECT_EQ(sg::detonant_states(g, g.noninput_signals()[k], 1), batched[k])
        << "signal index " << k;
}

TEST_P(ScaleDeterminismTest, VerifyCoverMatchesSerial) {
  const Synthesized synthesized = synthesized_net(GetParam());
  const core::SynthesisResult& result = synthesized.result;
  const logic::TwoLevelSpec& spec = result.derived.spec;

  auto compare = [&spec](const logic::Cover& cover, const std::string& what) {
    const logic::VerifyResult serial = logic::verify_cover(spec, cover, 1);
    const logic::VerifyResult threaded = logic::verify_cover(spec, cover, kJobs);
    EXPECT_EQ(serial.ok, threaded.ok) << what;
    EXPECT_EQ(serial.message, threaded.message) << what;
  };

  compare(result.cover, "intact cover");
  // Broken covers exercise the first-failure-in-output-order merge.
  for (std::size_t drop = 0; drop < result.cover.size(); ++drop) {
    logic::Cover broken = result.cover;
    broken.erase(drop);
    compare(broken, "cover without cube " + std::to_string(drop));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaleDeterminismTest, ::testing::Range(1, 33));

}  // namespace
}  // namespace nshot
