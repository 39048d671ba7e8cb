// Event-driven gate-level simulator under the paper's pure delay model
// (Section IV-A): a pulse of any length on a gate input propagates to the
// gate output.  Gates have arbitrary — but per-run constant — delays
// sampled from the library's [min, max] interval, so running many seeds
// explores the delay space the hazard-freeness claim quantifies over.
//
// Primitives:
//  * AND/OR (with input inversion bubbles), INV, BUF: transport delay.
//  * kDelayLine: transport delay with an explicit per-instance delay.
//  * kInertialDelay: inertial delay — absorbs pulses shorter than its
//    delay (used by the MHS filter stage model and the SIS-like baseline's
//    hazard-masking pads).
//  * RS latch (set dominant), C-element: transport delay storage.
//  * MHS flip-flop: behavioural model of Figures 4 and 5 — a cell with
//    inputs {set, reset, enable_set, enable_reset} whose effective
//    excitations are set&enable_set / reset&enable_reset (the
//    acknowledgement AND gates are part of the custom cell).  An effective
//    excitation pulse shorter than the threshold ω is absorbed; a pulse of
//    width >= ω fires the output translated forward by τ.  Set pulses are
//    ignored while the output is already 1, reset pulses while it is 0.
//
// Trials run against a CompiledNetlist (sim/compiled_netlist.hpp): the
// seed-independent setup — CSR fanout, packed input codes, driver and
// fused-reader tables, delay bounds — is built once and shared, and
// `reset()` returns a simulator to its freshly-constructed state without
// reallocating, so sweeps pay only the per-seed work (delay sampling + the
// run itself) per trial.  The per-event walk reads HotGate records (the
// trial's sampled delay moved into the gate record) and, inside
// run_burst, walks fanout-of-1 combinational chains through a one-event
// hold register instead of the queue — both proven byte-identical to the
// reference driver by tests/sim_batch_equivalence_test.cpp.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace nshot::sim {

/// Per-simulator hot gate record: the fields evaluate_gate touches per
/// event, with the trial's sampled delay moved INTO the record — one cache
/// line holds the whole commit→schedule step instead of an indirection
/// into a separate delay table.  Static fields are copied from the
/// CompiledNetlist at construction; reset() refreshes only the delay.
struct HotGate {
  double delay = 0.0;
  std::uint32_t first_input = 0;
  netlist::NetId out0 = -1;
  gatelib::GateType type = gatelib::GateType::kBuf;
  std::uint8_t num_inputs = 0;
};

struct SimulatorOptions {
  std::uint64_t seed = 1;
  /// Sample per-gate delays uniformly from the library interval; when
  /// false every gate uses the midpoint (deterministic baseline).
  bool randomize_delays = true;
  /// Complete per-gate delay assignment; overrides sampling when non-empty
  /// (must then hold one delay per gate).  Used by the adversarial delay
  /// search, which optimizes the vector directly.
  std::vector<double> explicit_delays;
  /// Targeted per-gate delay patches applied after sampling/explicit
  /// assignment — the delay-outlier and delay-line-shaving fault models.
  std::vector<std::pair<netlist::GateId, double>> delay_overrides;
  /// Abort the run once this many events have been processed (0 = no
  /// budget).  Injected faults can turn a quiescent circuit into an
  /// oscillator; the budget converts unbounded queue growth into a
  /// structured "budget exhausted" outcome.
  std::uint64_t max_events = 0;
};

/// Called on every committed net value change.
using NetObserver = std::function<void(netlist::NetId, bool value, double time)>;

class Simulator {
 public:
  /// Run against a pre-compiled netlist (the caller keeps it alive for the
  /// simulator's lifetime).  This is the hot-path constructor: the sweeps
  /// compile once per campaign and reset() the simulator per trial.
  Simulator(const CompiledNetlist& compiled, const SimulatorOptions& options);

  /// Convenience constructor compiling the netlist privately — identical
  /// behaviour, pays the compile on every construction.  Also the
  /// reference oracle's cost model (sim/trial_engine.hpp).
  Simulator(const netlist::Netlist& netlist, const gatelib::GateLibrary& lib,
            const SimulatorOptions& options);

  /// Return to the freshly-constructed state under new options: re-seed
  /// the RNG, resample/replace the delay vector, drop all pending events
  /// and observers.  All arena storage (event heap, per-net and per-gate
  /// arrays) keeps its capacity.  initialize() must be called again.
  void reset(const SimulatorOptions& options);

  /// Set the initial value of specific nets (primary inputs and storage
  /// outputs), then propagate through the combinational gates and arm any
  /// initially-excited storage elements.  Must be called exactly once
  /// before stepping.
  void initialize(const std::vector<std::pair<netlist::NetId, bool>>& fixed_values);

  /// initialize() with the combinational settle already done: `settled`
  /// holds one byte per net, exactly what initialize() would have computed
  /// from the fixed values (TrialRunner caches net_values() of its first
  /// initialize and replays it here).  Runs the same storage-arming pass
  /// as initialize(), so the event sequence — seq numbers included — is
  /// identical.
  void initialize_from_settled(const std::vector<std::uint8_t>& settled);

  /// Schedule an external change of a primary input.
  void set_input(netlist::NetId net, bool value, double at_time);

  /// Fault-injection instruments.  `force_net` pins a net to `value` at the
  /// current time, overriding its driver (stuck-at faults; a glitch is a
  /// force/release pair).  `release_net` un-pins the net and restores the
  /// driver's present output (the driven net must be combinational —
  /// AND/OR/INV/BUF — or driverless).  Both commit immediately and
  /// propagate through the fanout like any net change.
  void force_net(netlist::NetId net, bool value);
  void release_net(netlist::NetId net);
  bool is_forced(netlist::NetId net) const {
    return forced_[static_cast<std::size_t>(net)] != 0;
  }

  /// Advance the simulation clock to `t` without processing events; `t`
  /// must not lie in the past or beyond the next pending event.  Lets a
  /// harness timestamp a runtime injection correctly when the circuit is
  /// quiescent at the injection instant.
  void advance_time(double t);

  void set_observer(NetObserver observer) { observer_ = std::move(observer); }

  /// One committed net change, in commit order.
  struct Commit {
    netlist::NetId net;
    bool value;
  };

  /// Route committed changes into `log` instead of dispatching observer_.
  /// The driver drains the log after every step/force/release — commit
  /// times are recoverable as now() because at most one commit happens per
  /// step (evaluate_gate only schedules) and forces drain immediately.
  /// This replaces a std::function call per commit with a push_back;
  /// TrialRunner's injection driver lives on it.  Cleared by reset().
  void set_commit_log(std::vector<Commit>* log) { commit_log_ = log; }

  /// Process the next event; returns false when the queue is empty.
  bool step();

  /// Why run_burst stopped.
  enum class BurstStop : std::uint8_t {
    kObservable,  // an observable net committed (see BurstResult net/value)
    kQuiesced,    // event queue drained
    kBudget,      // event budget tripped (budget_exhausted() is now true)
    kTimeLimit,   // now() reached the time limit after an event
    kBound,       // the next event lies strictly past `bound`
  };
  struct BurstResult {
    BurstStop stop;
    netlist::NetId net = -1;
    bool value = false;
  };

  /// The fused hot loop of TrialRunner's driver: process events
  /// back-to-back — pop, commit, fanout evaluation inline — until an
  /// observable net commits (net_signal[net] >= 0), the queue drains, the
  /// event budget trips, now() reaches `time_limit`, or the next pending
  /// event lies past `bound`.  Exactly equivalent to calling step() per
  /// event with a commit log drained between steps (the check order after
  /// each event is the drain loop's: time limit, queue, bound), minus the
  /// per-event log traffic and accessor round-trips.  `pre_check`, when
  /// non-null, is invoked for every commit in commit order (the VCD/probe
  /// observers); the caller runs the spec walk on the returned observable
  /// commit.  With `single` set, exactly one event is processed and the
  /// post-event checks are skipped — the caller's loop re-derives them —
  /// which is the "commit the just-scheduled input" step.
  BurstResult run_burst(const int* net_signal, double time_limit, double bound,
                        const NetObserver* pre_check, bool single = false);

  /// Run until the queue drains or `time_limit` is passed.
  void run_until(double time_limit);

  double now() const { return now_; }
  bool has_pending_events() const { return !events_.empty(); }
  double next_event_time() const;
  /// Number of events currently queued (the fused chain register never
  /// survives a run_burst return, so this is the whole pending set).
  std::size_t pending_events() const { return events_.size(); }

  bool value(netlist::NetId net) const {
    return values_[static_cast<std::size_t>(net)] != 0;
  }
  /// Every net's committed value, one byte per net; right after
  /// initialize() this is the settled state initialize_from_settled takes.
  const std::vector<std::uint8_t>& net_values() const { return values_; }
  /// Number of committed value changes of a net since initialization.
  long toggle_count(netlist::NetId net) const {
    return toggles_[static_cast<std::size_t>(net)];
  }
  /// Sum of toggle counts over all nets except the listed ones.
  long total_toggles_excluding(const std::vector<netlist::NetId>& excluded) const;

  /// Number of sub-threshold excitation pulses absorbed by the MHS
  /// flip-flops (the hazard filter of Figure 5 doing its job).
  long mhs_absorbed_pulses() const { return mhs_absorbed_; }

  /// The per-gate delay assignment of this run (sampled, explicit, or
  /// overridden) — the witness the fault harness minimizes.
  const std::vector<double>& gate_delays() const { return gate_delay_; }

  std::uint64_t events_processed() const { return events_processed_; }
  /// True once the event budget (SimulatorOptions::max_events) was hit;
  /// step() then refuses to process further events.
  bool budget_exhausted() const { return budget_exhausted_; }

  const netlist::Netlist& circuit() const { return compiled_->netlist(); }
  const CompiledNetlist& compiled() const { return *compiled_; }

 private:
  struct MhsState {
    double set_rise = -1.0;    // time the (gated) set input last rose; -1 = low
    double reset_rise = -1.0;
    bool armed_set = false;    // a probe for the current set excitation is queued
    bool armed_reset = false;
  };

  struct InertialState {
    std::uint32_t generation = 0;  // invalidates the pending event (wraps with Event's)
    bool has_pending = false;
    bool pending_value = false;
  };

  void arm_initial_storage();
  void build_hot_gates();
  void schedule_net(netlist::NetId net, bool value, double time, std::uint32_t generation = 0);
  void commit_net(netlist::NetId net, bool value, bool forced_commit = false);
  void evaluate_gate(netlist::GateId g);
  /// One implementation evaluates both gate records: the cold CompiledGate
  /// (initialize, release_net) and the per-trial HotGate (event walk).
  template <typename GateRec>
  bool eval_combinational(const GateRec& gate) const;
  void handle_mhs_input(netlist::GateId g);
  void handle_mhs_probe(netlist::GateId g, bool probing_set);

  const CompiledNetlist* compiled_;
  std::unique_ptr<const CompiledNetlist> owned_;  // compat-constructor storage
  Rng rng_;
  double omega_;                           // lib().mhs_threshold()
  double tau_;                             // lib().mhs_response()
  std::vector<double> gate_delay_;         // sampled per gate
  std::vector<HotGate> hot_;               // delay-in-record gate descriptors
  std::vector<std::uint8_t> values_;       // committed net values
  std::vector<std::uint8_t> projected_;    // value after all pending events
  std::vector<std::uint8_t> forced_;       // nets pinned by force_net
  std::vector<long> toggles_;
  std::vector<MhsState> mhs_;              // per gate (only MHS entries used)
  std::vector<InertialState> inertial_;    // per gate (only inertial entries used)
  EventQueue events_;
  // Fused-chain hold register: run_burst keeps the single event a
  // fanout-of-1 combinational link scheduled out of the queue and consumes
  // it inline when it is the global (time, seq) minimum.  hold_open_ is
  // set around the link's evaluate_gate call so schedule_net diverts the
  // push here; every run_burst exit path flushes the register back into
  // the queue, so it never outlives a burst.
  Event hold_{};
  bool hold_valid_ = false;
  bool hold_open_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t max_events_ = 0;
  std::uint64_t events_processed_ = 0;
  bool budget_exhausted_ = false;
  long mhs_absorbed_ = 0;
  double now_ = 0.0;
  bool initialized_ = false;
  NetObserver observer_;
  std::vector<Commit>* commit_log_ = nullptr;
};

}  // namespace nshot::sim
