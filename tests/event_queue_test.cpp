// Pop-order tests of the simulator's event queue (sim/event_queue.hpp).
// The determinism contract needs the queue to pop in (time, seq) order —
// same-tick events strictly FIFO by seq — and the fused-chain hold
// register of Simulator::run_burst to keep that order when it walks
// fanout-of-1 links outside the queue.
//
// The CI matrix runs this binary under ASan and TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gatelib/gate_library.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/event_queue.hpp"
#include "sim/event_sim.hpp"
#include "util/rng.hpp"

namespace nshot::sim {
namespace {

Event make_event(double time, std::uint64_t seq) {
  Event e;
  e.time = time;
  e.seq = seq;
  e.kind = (seq % 3 == 0) ? EventKind::kMhsProbe : EventKind::kNetChange;
  e.target = static_cast<int>(seq % 17);
  e.value = (seq % 2) != 0;
  e.generation = static_cast<std::uint32_t>(seq * 7);
  return e;
}

void expect_same_event(const Event& a, const Event& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.generation, b.generation);
}

TEST(EventQueueTest, SameTickEventsPopInFifoOrder) {
  // Every event on one tick: pop order must be exactly seq order (the
  // heap's sift order must never leak into the observable order).
  EventQueue queue;
  constexpr std::uint64_t kEvents = 500;
  for (std::uint64_t i = 0; i < kEvents; ++i) queue.push(make_event(42.0, i));
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    ASSERT_FALSE(queue.empty());
    expect_same_event(queue.top(), make_event(42.0, i));
    queue.pop();
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, SameTickFifoSurvivesInterleavedTicks) {
  // Heavy tick collisions pushed out of time order, interleaved with
  // pops: every pop must take the (time, seq) minimum of what is pending.
  Rng rng(7);
  EventQueue queue;
  std::vector<Event> pending;
  auto pop_and_check = [&] {
    const auto want = std::min_element(pending.begin(), pending.end(),
                                       [](const Event& a, const Event& b) { return b > a; });
    ASSERT_FALSE(queue.empty());
    expect_same_event(queue.top(), *want);
    queue.pop();
    pending.erase(want);
  };
  std::uint64_t seq = 0;
  for (int tick = 0; tick < 60; ++tick) {
    const double t = static_cast<double>(rng.next_below(10));
    for (std::uint64_t i = 0; i < 1 + rng.next_below(8); ++i) {
      pending.push_back(make_event(t, seq++));
      queue.push(pending.back());
    }
    if (rng.next_bool(0.3)) pop_and_check();
  }
  while (!pending.empty()) pop_and_check();
  EXPECT_TRUE(queue.empty());
}

/// Two unequal combinational chains from one input, converging on an AND
/// and an OR: the inner chain links are fanout-of-1 (fused by the
/// compiled walk), and the midpoint delay model makes chain commits
/// collide on the same tick, so any FIFO violation in the fused hold
/// register reorders the commit stream.
netlist::Netlist converging_chains() {
  netlist::Netlist nl("fifo-fusion");
  const netlist::NetId a = nl.add_net("a");
  nl.add_primary_input(a);
  auto chain = [&nl](netlist::NetId from, gatelib::GateType type, int length,
                     const std::string& prefix) {
    netlist::NetId prev = from;
    for (int i = 0; i < length; ++i) {
      const netlist::NetId out = nl.add_net(prefix + std::to_string(i));
      netlist::Gate g;
      g.type = type;
      g.name = prefix + "g" + std::to_string(i);
      g.inputs = {prev};
      g.outputs = {out};
      nl.add_gate(std::move(g));
      prev = out;
    }
    return prev;
  };
  const netlist::NetId left = chain(a, gatelib::GateType::kBuf, 3, "p");
  const netlist::NetId right = chain(a, gatelib::GateType::kInv, 5, "q");
  const netlist::NetId and_out = nl.add_net("and_out");
  const netlist::NetId or_out = nl.add_net("or_out");
  netlist::Gate and_gate;
  and_gate.type = gatelib::GateType::kAnd;
  and_gate.name = "and0";
  and_gate.inputs = {left, right};
  and_gate.outputs = {and_out};
  nl.add_gate(std::move(and_gate));
  netlist::Gate or_gate;
  or_gate.type = gatelib::GateType::kOr;
  or_gate.name = "or0";
  or_gate.inputs = {left, right};
  or_gate.outputs = {or_out};
  nl.add_gate(std::move(or_gate));
  nl.add_primary_output(and_out);
  nl.add_primary_output(or_out);
  nl.check_well_formed();
  return nl;
}

TEST(FusedChainFifoTest, SameTickCommitsMatchTheStepDriver) {
  const netlist::Netlist nl = converging_chains();
  const CompiledNetlist compiled(nl, gatelib::GateLibrary::standard());
  ASSERT_GT(compiled.num_fused_nets(), std::size_t{0});

  SimulatorOptions options;
  options.randomize_delays = false;  // midpoint delays: maximal tick collisions

  const netlist::NetId a = *nl.find_net("a");
  auto drive = [&](Simulator& simulator) {
    simulator.initialize({{a, false}});
    simulator.set_input(a, true, 1.0);
    simulator.set_input(a, false, 50.0);
    simulator.set_input(a, true, 50.0 + 1e-12);  // near-tie across external edges
  };

  // Reference: the unfused step() driver (step never engages the hold
  // register), commit log in commit order.
  Simulator reference(compiled, options);
  std::vector<Simulator::Commit> reference_log;
  reference.set_commit_log(&reference_log);
  drive(reference);
  while (reference.step()) {
  }

  // Fused: the run_burst walk on the same schedule, commits captured via
  // the pre_check observer (run_burst's equivalent of the commit log).
  Simulator fused(compiled, options);
  std::vector<Simulator::Commit> fused_log;
  const NetObserver capture = [&fused_log](netlist::NetId net, bool value, double) {
    fused_log.push_back({net, value});
  };
  drive(fused);
  const std::vector<int> no_observables(static_cast<std::size_t>(nl.num_nets()), -1);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  while (fused.run_burst(no_observables.data(), kInf, kInf, &capture).stop ==
         Simulator::BurstStop::kObservable) {
  }

  ASSERT_EQ(fused_log.size(), reference_log.size());
  for (std::size_t i = 0; i < reference_log.size(); ++i) {
    EXPECT_EQ(fused_log[i].net, reference_log[i].net) << "commit " << i;
    EXPECT_EQ(fused_log[i].value, reference_log[i].value) << "commit " << i;
  }
  EXPECT_EQ(fused.events_processed(), reference.events_processed());
  EXPECT_EQ(fused.now(), reference.now());
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    EXPECT_EQ(fused.value(n), reference.value(n)) << "net " << nl.net_name(n);
    EXPECT_EQ(fused.toggle_count(n), reference.toggle_count(n)) << "net " << nl.net_name(n);
  }
}

}  // namespace
}  // namespace nshot::sim
