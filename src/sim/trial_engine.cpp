#include "sim/trial_engine.hpp"

#include <limits>
#include <optional>

#include "sim/vcd.hpp"
#include "util/rng.hpp"

namespace nshot::sim {

using netlist::NetId;

// ---------------------------------------------------------------------------
// TrialRunner
// ---------------------------------------------------------------------------

TrialRunner::TrialRunner(const CompiledNetlist& compiled) : sim_(compiled, SimulatorOptions{}) {}

void TrialRunner::initialize(const std::vector<std::pair<NetId, bool>>& fixed) {
  if (have_settle_ && settle_key_ == fixed) {
    sim_.initialize_from_settled(settled_);
    return;
  }
  sim_.initialize(fixed);
  settled_ = sim_.net_values();
  settle_key_ = fixed;
  have_settle_ = true;
}

// The production driver.  Control flow, RNG draw sequence, violation
// strings and report arithmetic replicate run_reference below exactly — the
// differences are mechanical: commits arrive through the commit log (at
// most one commit happens per step, and forces drain immediately, so
// sim_.now() is every logged commit's time), and the environment's choice
// list is rebuilt only when the spec state or forced-net set could have
// changed (run_reference rebuilds each iteration, but a rebuild's outcome —
// including whether the RNG is drawn — only depends on that state).
ConformanceReport TrialRunner::run(const sg::StateGraph& spec, const SpecBinding& binding,
                                   const ClosedLoopConfig& config, VcdRecorder* recorder) {
  ConformanceReport report;
  report.runs = 1;
  sim_.reset(config.sim);
  const std::uint64_t seed = config.sim.seed;
  Rng rng(env_stream(config.env_seed != 0 ? config.env_seed : seed));
  const std::vector<NetId>& signal_net = binding.signal_net;
  const std::vector<int>& net_signal = binding.net_signal;

  sg::StateId state = spec.initial();
  long run_transitions = 0;
  bool failed = false;
  bool env_dirty = true;  // choices stale: rebuild before the first decision

  NetObserver vcd_observer = recorder ? recorder->observer() : NetObserver{};
  log_.clear();
  sim_.set_commit_log(&log_);

  // The spec walk for one committed observable change.
  auto walk = [&](NetId net, bool value, double time) {
    const int x = net_signal[static_cast<std::size_t>(net)];
    if (x < 0 || failed) return;  // internal net, or already failing
    const sg::StateId next = binding.next_state(state, x, value);
    if (next >= 0) {
      state = next;
      ++run_transitions;
      return;
    }
    failed = true;
    const sg::TransitionLabel label{x, value};
    report.violations.push_back(ConformanceViolation{
        seed, time, spec.is_input(x) ? ViolationKind::kEnvironment : ViolationKind::kHazard,
        "unexpected transition " + spec.label_name(label) + " in state " +
            spec.state_name(state) + (spec.is_input(x) ? " (environment bug)" : " (hazard)")});
  };
  // One committed change: VCD capture, extra observer, spec check — the
  // order run_reference's observer runs them.
  auto check = [&](NetId net, bool value, double time) {
    if (vcd_observer) vcd_observer(net, value, time);
    if (config.observer) config.observer(net, value, time);
    walk(net, value, time);
  };
  auto drain = [&]() {
    if (log_.empty()) return;
    const double t = sim_.now();
    const sg::StateId before = state;
    for (const Simulator::Commit& c : log_) check(c.net, c.value, t);
    log_.clear();
    if (state != before) env_dirty = true;
  };

  initialize(binding.initial_values);
  if (recorder) recorder->capture_initial(sim_);
  if (config.on_initialized) config.on_initialized(sim_);
  for (const auto& [net, value] : config.forces) {
    sim_.force_net(net, value);
    drain();
  }

  struct InputDecision {
    sg::TransitionLabel label;
    double time;
  };
  std::optional<InputDecision> decision;
  std::size_t next_injection = 0;
  constexpr double kNever = std::numeric_limits<double>::infinity();

  // (Re)validate or make the environment's next input decision; shared by
  // both driver loops below.
  auto refresh_decision = [&]() {
    if (decision &&
        binding.next_state(state, decision->label.signal, decision->label.rising) < 0)
      decision.reset();
    if (!decision && env_dirty) {
      choices_.clear();
      for (const sg::Edge& e : spec.out_edges(state))
        if (spec.is_input(e.label.signal) &&
            !sim_.is_forced(signal_net[static_cast<std::size_t>(e.label.signal)]))
          choices_.push_back(e.label);
      if (!choices_.empty()) {
        const sg::TransitionLabel pick = choices_[rng.next_below(choices_.size())];
        decision = InputDecision{
            pick, sim_.now() + rng.next_double(config.input_delay_min, config.input_delay_max)};
      }
      env_dirty = false;
    }
  };
  // Quiescent with no possible input: clean endpoint or deadlock.
  auto note_quiescence = [&]() {
    bool output_pending = false;
    bool input_starved = false;
    for (const sg::Edge& e : spec.out_edges(state)) {
      if (!spec.is_input(e.label.signal))
        output_pending = true;
      else if (sim_.is_forced(signal_net[static_cast<std::size_t>(e.label.signal)]))
        input_starved = true;
    }
    if (output_pending || input_starved) {
      ++report.deadlocks;
      report.violations.push_back(ConformanceViolation{
          seed, sim_.now(), ViolationKind::kDeadlock,
          output_pending
              ? "circuit quiescent but spec state " + spec.state_name(state) +
                    " still enables a non-input transition"
              : "circuit quiescent and every transition spec state " + spec.state_name(state) +
                    " enables is an input pinned by a fault"});
    }
  };

  if (config.injections.empty()) {
    // Fused driver: no timed injections means the schedule can only change
    // at the decision deadline or a spec state change, so the whole
    // pop-commit-evaluate cycle runs inside Simulator::run_burst and only
    // observable commits surface here.  Commits bypass the log entirely.
    sim_.set_commit_log(nullptr);
    NetObserver pre_observers;
    const NetObserver* pre = nullptr;
    if (vcd_observer || config.observer) {
      pre_observers = [&](NetId net, bool value, double time) {
        if (vcd_observer) vcd_observer(net, value, time);
        if (config.observer) config.observer(net, value, time);
      };
      pre = &pre_observers;
    }
    const int* net_sig = net_signal.data();

    while (!failed && run_transitions < config.max_transitions &&
           sim_.now() < config.time_limit && !sim_.budget_exhausted()) {
      refresh_decision();

      if (sim_.has_pending_events() &&
          (!decision || config.fundamental_mode || sim_.next_event_time() <= decision->time)) {
        const double bound = (decision && !config.fundamental_mode) ? decision->time : kNever;
        while (true) {
          const Simulator::BurstResult r = sim_.run_burst(net_sig, config.time_limit, bound, pre);
          if (r.stop != Simulator::BurstStop::kObservable) break;
          const sg::StateId before = state;
          walk(r.net, r.value, sim_.now());
          if (state != before) env_dirty = true;
          if (failed || state != before) break;
          if (sim_.now() >= config.time_limit) break;
          if (!sim_.has_pending_events()) break;
          if (decision && !config.fundamental_mode &&
              sim_.next_event_time() > decision->time)
            break;
        }
        continue;
      }
      if (decision) {
        if (config.fundamental_mode && decision->time < sim_.now())
          decision->time = sim_.now();  // the circuit outlasted the planned instant
        sim_.set_input(signal_net[static_cast<std::size_t>(decision->label.signal)],
                       decision->label.rising, decision->time);
        // Commit the just-scheduled input (one event, exactly as the
        // commit-log driver's set_input + step + drain).
        const Simulator::BurstResult r =
            sim_.run_burst(net_sig, config.time_limit, kNever, pre, /*single=*/true);
        if (r.stop == Simulator::BurstStop::kObservable) walk(r.net, r.value, sim_.now());
        env_dirty = true;  // redraw even if the input commit was deduped away
        decision.reset();
        continue;
      }
      note_quiescence();
      break;
    }
  } else {
    while (!failed && run_transitions < config.max_transitions &&
           sim_.now() < config.time_limit && !sim_.budget_exhausted()) {
      refresh_decision();

      const double event_time = sim_.has_pending_events() ? sim_.next_event_time() : kNever;
      const double decision_time = decision ? decision->time : kNever;
      const double injection_time =
          next_injection < config.injections.size()
              ? std::max(config.injections[next_injection].time, sim_.now())
              : kNever;

      if (next_injection < config.injections.size() && injection_time <= event_time &&
          injection_time <= decision_time) {
        const TimedInjection& inj = config.injections[next_injection++];
        sim_.advance_time(injection_time);
        if (inj.release)
          sim_.release_net(inj.net);
        else
          sim_.force_net(inj.net, inj.value);
        drain();
        env_dirty = true;  // the forced-net set changed
        continue;
      }

      if (sim_.has_pending_events() &&
          (!decision || config.fundamental_mode || event_time <= decision->time)) {
        sim_.step();
        drain();
        continue;
      }
      if (decision) {
        if (config.fundamental_mode && decision->time < sim_.now())
          decision->time = sim_.now();  // the circuit outlasted the planned instant
        sim_.set_input(signal_net[static_cast<std::size_t>(decision->label.signal)],
                       decision->label.rising, decision->time);
        sim_.step();
        drain();
        env_dirty = true;  // redraw even if the input commit was deduped away
        decision.reset();
        continue;
      }
      note_quiescence();
      break;
    }
  }

  if (sim_.budget_exhausted()) {
    ++report.budget_exhausted;
    report.violations.push_back(ConformanceViolation{
        seed, sim_.now(), ViolationKind::kEventBudget,
        "event budget exhausted after " + std::to_string(sim_.events_processed()) +
            " events (runaway oscillation under the current delays/faults?)"});
  }

  report.external_transitions += run_transitions;
  report.internal_toggles += sim_.total_toggles_excluding(binding.observable);
  report.absorbed_pulses += sim_.mhs_absorbed_pulses();
  report.simulated_time += sim_.now();
  sim_.set_commit_log(nullptr);
  return report;
}

// ---------------------------------------------------------------------------
// The reference oracle
// ---------------------------------------------------------------------------

ConformanceReport run_reference(const sg::StateGraph& spec, const SpecBinding& binding,
                                Simulator& sim, const ClosedLoopConfig& config,
                                VcdRecorder* recorder) {
  ConformanceReport report;
  report.runs = 1;
  const std::uint64_t seed = config.sim.seed;
  Rng rng(env_stream(config.env_seed != 0 ? config.env_seed : seed));
  const std::vector<NetId>& signal_net = binding.signal_net;
  const std::vector<int>& net_signal = binding.net_signal;

  sg::StateId state = spec.initial();
  long run_transitions = 0;
  bool failed = false;

  NetObserver vcd_observer = recorder ? recorder->observer() : NetObserver{};
  sim.set_observer([&, vcd_observer](NetId net, bool value, double time) {
    if (vcd_observer) vcd_observer(net, value, time);
    if (config.observer) config.observer(net, value, time);
    const int x = net_signal[static_cast<std::size_t>(net)];
    if (x < 0 || failed) return;  // internal net, or already failing
    const sg::StateId next = binding.next_state(state, x, value);
    if (next >= 0) {
      state = next;
      ++run_transitions;
      return;
    }
    failed = true;
    const sg::TransitionLabel label{x, value};
    report.violations.push_back(ConformanceViolation{
        seed, time, spec.is_input(x) ? ViolationKind::kEnvironment : ViolationKind::kHazard,
        "unexpected transition " + spec.label_name(label) + " in state " +
            spec.state_name(state) + (spec.is_input(x) ? " (environment bug)" : " (hazard)")});
  });

  sim.initialize(binding.initial_values);
  if (recorder) recorder->capture_initial(sim);
  if (config.on_initialized) config.on_initialized(sim);
  for (const auto& [net, value] : config.forces) sim.force_net(net, value);

  struct InputDecision {
    sg::TransitionLabel label;
    double time;
  };
  std::optional<InputDecision> decision;
  std::size_t next_injection = 0;
  constexpr double kNever = std::numeric_limits<double>::infinity();
  std::vector<sg::TransitionLabel> choices;  // reused across decisions

  while (!failed && run_transitions < config.max_transitions &&
         sim.now() < config.time_limit && !sim.budget_exhausted()) {
    // (Re)validate or make the environment's next input decision.  A
    // stuck-at input net cannot be toggled by the environment, so labels
    // on forced nets are not offered.
    if (decision &&
        binding.next_state(state, decision->label.signal, decision->label.rising) < 0)
      decision.reset();
    if (!decision) {
      choices.clear();
      for (const sg::Edge& e : spec.out_edges(state))
        if (spec.is_input(e.label.signal) &&
            !sim.is_forced(signal_net[static_cast<std::size_t>(e.label.signal)]))
          choices.push_back(e.label);
      if (!choices.empty()) {
        const sg::TransitionLabel pick = choices[rng.next_below(choices.size())];
        decision = InputDecision{
            pick, sim.now() + rng.next_double(config.input_delay_min, config.input_delay_max)};
      }
    }

    const double event_time = sim.has_pending_events() ? sim.next_event_time() : kNever;
    const double decision_time = decision ? decision->time : kNever;
    const double injection_time = next_injection < config.injections.size()
                                      ? std::max(config.injections[next_injection].time, sim.now())
                                      : kNever;

    // A due injection preempts both circuit events and the environment:
    // the fault is already present at that instant.
    if (next_injection < config.injections.size() && injection_time <= event_time &&
        injection_time <= decision_time) {
      const TimedInjection& inj = config.injections[next_injection++];
      sim.advance_time(injection_time);
      if (inj.release)
        sim.release_net(inj.net);
      else
        sim.force_net(inj.net, inj.value);
      continue;
    }

    // Fundamental mode: drain all circuit activity before the input fires.
    if (sim.has_pending_events() &&
        (!decision || config.fundamental_mode || event_time <= decision->time)) {
      sim.step();
      continue;
    }
    if (decision) {
      if (config.fundamental_mode && decision->time < sim.now())
        decision->time = sim.now();  // the circuit outlasted the planned instant
      sim.set_input(signal_net[static_cast<std::size_t>(decision->label.signal)],
                    decision->label.rising, decision->time);
      // Commit the input immediately (it is the earliest pending event) so
      // the spec state advances before the next decision is made.
      sim.step();
      decision.reset();
      continue;
    }

    // No circuit events, no injection, and no possible input: quiescent or
    // deadlocked.  Reaching here with no decision means every enabled input
    // label sits on a forced net, so an enabled input is a starved
    // environment, not a clean endpoint.
    bool output_pending = false;
    bool input_starved = false;
    for (const sg::Edge& e : spec.out_edges(state)) {
      if (!spec.is_input(e.label.signal))
        output_pending = true;
      else if (sim.is_forced(signal_net[static_cast<std::size_t>(e.label.signal)]))
        input_starved = true;
    }
    if (output_pending || input_starved) {
      ++report.deadlocks;
      report.violations.push_back(ConformanceViolation{
          seed, sim.now(), ViolationKind::kDeadlock,
          output_pending
              ? "circuit quiescent but spec state " + spec.state_name(state) +
                    " still enables a non-input transition"
              : "circuit quiescent and every transition spec state " + spec.state_name(state) +
                    " enables is an input pinned by a fault"});
    }
    break;
  }

  if (sim.budget_exhausted()) {
    ++report.budget_exhausted;
    report.violations.push_back(ConformanceViolation{
        seed, sim.now(), ViolationKind::kEventBudget,
        "event budget exhausted after " + std::to_string(sim.events_processed()) +
            " events (runaway oscillation under the current delays/faults?)"});
  }

  report.external_transitions += run_transitions;
  report.internal_toggles += sim.total_toggles_excluding(binding.observable);
  report.absorbed_pulses += sim.mhs_absorbed_pulses();
  report.simulated_time += sim.now();
  return report;
}

// ---------------------------------------------------------------------------
// TrialEngine
// ---------------------------------------------------------------------------

TrialEngine::TrialEngine(const CompiledNetlist& compiled, bool reference_kernels)
    : compiled_(&compiled) {
  if (!reference_kernels) runner_.emplace(compiled);
}

ConformanceReport TrialEngine::run(const sg::StateGraph& spec, const SpecBinding& binding,
                                   const ClosedLoopConfig& config, VcdRecorder* recorder) {
  if (runner_) return runner_->run(spec, binding, config, recorder);
  // The oracle's cost model: compile and construct per trial.
  Simulator fresh(compiled_->netlist(), compiled_->lib(), config.sim);
  return run_reference(spec, binding, fresh, config, recorder);
}

}  // namespace nshot::sim
