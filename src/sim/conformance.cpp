#include "sim/conformance.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "exec/thread_pool.hpp"
#include "obs/obs.hpp"
#include "sim/trial_engine.hpp"
#include "sim/vcd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nshot::sim {

using netlist::NetId;

const char* violation_kind_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kHazard: return "hazard";
    case ViolationKind::kEnvironment: return "environment";
    case ViolationKind::kDeadlock: return "deadlock";
    case ViolationKind::kEventBudget: return "event-budget";
  }
  return "unknown";
}

std::string ConformanceReport::summary() const {
  std::ostringstream out;
  out << runs << " run(s): " << external_transitions << " conformant external transitions, "
      << internal_toggles << " internal toggles, " << deadlocks << " deadlock(s), "
      << violations.size() << " violation(s)";
  if (budget_exhausted > 0) out << ", " << budget_exhausted << " budget-exhausted run(s)";
  for (std::size_t i = 0; i < std::min<std::size_t>(violations.size(), 5); ++i)
    out << "\n  [seed " << violations[i].seed << " t=" << violations[i].time << "] "
        << violation_kind_name(violations[i].kind) << ": " << violations[i].description;
  return out.str();
}

std::vector<std::pair<NetId, bool>> initial_net_values(const sg::StateGraph& spec,
                                                       const netlist::Netlist& circuit) {
  std::vector<std::pair<NetId, bool>> values;
  for (int x = 0; x < spec.num_signals(); ++x) {
    const bool v = spec.value(spec.initial(), x);
    if (const auto q = circuit.find_net(spec.signal(x).name)) values.emplace_back(*q, v);
    if (const auto qb = circuit.find_net(spec.signal(x).name + "_b"))
      values.emplace_back(*qb, !v);
  }
  if (const auto c0 = circuit.find_net("const0")) values.emplace_back(*c0, false);
  if (const auto c1 = circuit.find_net("const1")) values.emplace_back(*c1, true);
  return values;
}

SpecBinding::SpecBinding(const sg::StateGraph& spec, const netlist::Netlist& circuit) {
  signal_net.assign(static_cast<std::size_t>(spec.num_signals()), -1);
  net_signal.assign(static_cast<std::size_t>(circuit.num_nets()), -1);
  for (int x = 0; x < spec.num_signals(); ++x) {
    const auto net = circuit.find_net(spec.signal(x).name);
    NSHOT_REQUIRE(net.has_value(), "circuit has no net for signal " + spec.signal(x).name);
    signal_net[static_cast<std::size_t>(x)] = *net;
    net_signal[static_cast<std::size_t>(*net)] = x;
    observable.push_back(*net);
    if (const auto qb = circuit.find_net(spec.signal(x).name + "_b")) observable.push_back(*qb);
  }
  initial_values = initial_net_values(spec, circuit);

  num_signals = spec.num_signals();
  successor.assign(static_cast<std::size_t>(spec.num_states()) *
                       static_cast<std::size_t>(num_signals) * 2,
                   sg::StateId{-1});
  for (sg::StateId s = 0; s < spec.num_states(); ++s)
    for (const sg::Edge& e : spec.out_edges(s))
      successor[(static_cast<std::size_t>(s) * static_cast<std::size_t>(num_signals) +
                 static_cast<std::size_t>(e.label.signal)) * 2 + (e.label.rising ? 1 : 0)] =
          e.target;
}

namespace {

/// First differing fingerprint field between two single-trial reports, or
/// nullptr when they agree.  Everything a trial computes funnels into
/// these fields, so agreement here is agreement on the trial.
const char* trial_mismatch_field(const ConformanceReport& got, const ConformanceReport& want) {
  if (got.external_transitions != want.external_transitions) return "external_transitions";
  if (got.internal_toggles != want.internal_toggles) return "internal_toggles";
  if (got.absorbed_pulses != want.absorbed_pulses) return "absorbed_pulses";
  if (got.simulated_time != want.simulated_time) return "simulated_time";
  if (got.deadlocks != want.deadlocks) return "deadlocks";
  if (got.budget_exhausted != want.budget_exhausted) return "budget_exhausted";
  if (got.violations.size() != want.violations.size()) return "violations";
  return nullptr;
}

std::atomic<int> g_inject_kernel_fault{-1};  // -1 = env not read yet

}  // namespace

namespace testing {

void set_kernel_fault_injection(bool enabled) {
  g_inject_kernel_fault.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

bool kernel_fault_injection() {
  int v = g_inject_kernel_fault.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("NSHOT_INJECT_KERNEL_FAULT");
    v = (env && *env && *env != '0') ? 1 : 0;
    g_inject_kernel_fault.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

}  // namespace testing

ConformanceReport run_closed_loop(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                                  const ClosedLoopConfig& config, VcdRecorder* recorder) {
  Simulator sim(circuit, gatelib::GateLibrary::standard(), config.sim);
  return run_reference(spec, SpecBinding(spec, circuit), sim, config, recorder);
}

/// Fold one trial's report into the sweep total.  Trials are merged in run
/// order, so a parallel sweep reproduces the serial report byte for byte.
static void merge_run(ConformanceReport& total, const ConformanceReport& run) {
  total.external_transitions += run.external_transitions;
  total.internal_toggles += run.internal_toggles;
  total.absorbed_pulses += run.absorbed_pulses;
  total.simulated_time += run.simulated_time;
  total.deadlocks += run.deadlocks;
  total.budget_exhausted += run.budget_exhausted;
  total.violations.insert(total.violations.end(), run.violations.begin(),
                          run.violations.end());
}

ConformanceReport check_conformance(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                                    const ConformanceOptions& options) {
  const CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  return check_conformance(spec, compiled, options);
}

ConformanceReport check_conformance(const sg::StateGraph& spec, const CompiledNetlist& compiled,
                                    const ConformanceOptions& options) {
  // Every trial is a pure function of run_seed(options.seed, r), so the
  // sweep is an order-independent bag of work; only the merge is ordered.
  // Chunking lets each scheduled task run many sub-millisecond trials
  // through one TrialEngine (sim/trial_engine.hpp).
  const obs::Span conf_span("conformance");
  const SpecBinding binding(spec, compiled.netlist());
  auto trial_config = [&](int r) {
    ClosedLoopConfig config;
    config.sim.seed = run_seed(options.seed, r);
    config.sim.randomize_delays = true;
    config.sim.max_events = options.max_events;
    config.max_transitions = options.max_transitions;
    config.input_delay_min = options.input_delay_min;
    config.input_delay_max = options.input_delay_max;
    config.time_limit = options.time_limit;
    config.fundamental_mode = options.fundamental_mode;
    return config;
  };
  std::vector<ConformanceReport> trials(static_cast<std::size_t>(std::max(options.runs, 0)));
  const bool verify = options.verify_kernels && !options.reference_kernels;
  exec::parallel_for_chunks(
      options.runs,
      options.grain > 0 ? options.grain : exec::batch_grain(options.runs, options.jobs),
      [&](int begin, int end) {
        // Chunk boundaries are a scheduling detail (they move with jobs /
        // grain), so the span is task-scoped: dropped from deterministic
        // exports, kept in wall-clock traces.
        const obs::Span chunk_span = obs::Span::task("trials", begin);
        obs::count(obs::Counter::kTrialsRun, end - begin);
        TrialEngine engine(compiled, options.reference_kernels);
        std::optional<TrialEngine> oracle;
        if (verify) oracle.emplace(compiled, /*reference_kernels=*/true);
        for (int r = begin; r < end; ++r) {
          const ClosedLoopConfig config = trial_config(r);
          ConformanceReport trial = engine.run(spec, binding, config);
          if (verify) {
            if (testing::kernel_fault_injection()) ++trial.internal_toggles;
            const ConformanceReport want = oracle->run(spec, binding, config);
            if (const char* field = trial_mismatch_field(trial, want)) {
              obs::count(obs::Counter::kKernelMismatches);
              throw Error(ErrorCode::kKernelMismatch,
                          "compiled simulator diverged from reference on trial " +
                              std::to_string(r) + " (seed " + std::to_string(config.sim.seed) +
                              "): field " + field);
            }
          }
          trials[static_cast<std::size_t>(r)] = std::move(trial);
        }
      },
      options.jobs);
  ConformanceReport report;
  report.runs = options.runs;
  for (const ConformanceReport& trial : trials) merge_run(report, trial);
  return report;
}

TracedRun record_vcd_trace(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                           std::uint64_t seed, int max_transitions) {
  VcdRecorder recorder(circuit);
  ClosedLoopConfig config;
  config.sim.seed = seed;
  config.sim.randomize_delays = true;
  config.max_transitions = max_transitions;
  TracedRun traced = {};
  traced.report = run_closed_loop(spec, circuit, config, &recorder);
  traced.vcd = recorder.write();
  return traced;
}

}  // namespace nshot::sim
