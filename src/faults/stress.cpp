#include "faults/stress.hpp"

#include <algorithm>

#include "exec/thread_pool.hpp"
#include "obs/obs.hpp"
#include "sim/delay_space.hpp"
#include "sim/trial_engine.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace nshot::faults {

using gatelib::GateType;
using netlist::Gate;
using netlist::GateId;
using netlist::NetId;

namespace {

void write_violations(JsonWriter& json, const sim::ConformanceReport& report) {
  json.begin_array();
  for (const sim::ConformanceViolation& v : report.violations) {
    json.begin_object();
    json.key("kind").value(sim::violation_kind_name(v.kind));
    json.key("time").value(v.time);
    json.key("description").value(v.description);
    json.end_object();
  }
  json.end_array();
}

}  // namespace

StressReport run_stress(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                        const std::string& benchmark, const StressOptions& options) {
  const obs::Span stress_span("stress");
  const gatelib::GateLibrary& lib = gatelib::GateLibrary::standard();
  const double omega = lib.mhs_threshold();
  // Compile once for the whole campaign: every phase below runs against
  // the same CSR fanout / driver table / delay bounds and the same
  // name-resolved spec binding.
  const sim::CompiledNetlist compiled(circuit, lib);
  const sim::SpecBinding binding(spec, circuit);
  StressReport report;
  report.benchmark = benchmark;
  report.margin_runs = options.margin_runs;

  // Enumerate the MHS cells once; run_probed reports omega stats in the
  // same netlist order.
  const MarginProbe cells(circuit, lib);
  std::vector<int> signal_of_cell;  // cell index -> report.signals index
  for (int k = 0; k < cells.num_cells(); ++k) {
    SignalMargins margins;
    margins.signal = cells.cell_signal(k);
    signal_of_cell.push_back(static_cast<int>(report.signals.size()));
    report.signals.push_back(std::move(margins));
  }

  // Phase 1: margin measurement over independent delay samples of the
  // UNFAULTED circuit.  Each probed run depends only on run_seed(seed, r);
  // runs execute in parallel and merge in run order.
  {
    const obs::Span margins_span("margins");
    std::vector<ProbedRun> probed(static_cast<std::size_t>(std::max(options.margin_runs, 0)));
    exec::parallel_for_chunks(
        options.margin_runs,
        options.grain > 0 ? options.grain : exec::batch_grain(options.margin_runs, options.jobs),
        [&](int begin, int end) {
          sim::TrialEngine engine(compiled, options.reference_kernels);
          MarginProbe probe(circuit, lib);
          for (int r = begin; r < end; ++r) {
            FaultScenario scenario;
            scenario.seed = run_seed(options.seed, r);
            probed[static_cast<std::size_t>(r)] =
                run_probed(spec, binding, scenario, options.run, engine, probe);
          }
        },
        options.jobs);
    for (const ProbedRun& run : probed) {
      if (!run.report.clean()) report.baseline_clean = false;
      for (int k = 0; k < cells.num_cells(); ++k)
        report.signals[static_cast<std::size_t>(signal_of_cell[static_cast<std::size_t>(k)])]
            .omega.merge(run.omega[static_cast<std::size_t>(k)]);
      for (std::size_t k = 0; k < run.eq1.size(); ++k) {
        SignalMargins& margins =
            report.signals[static_cast<std::size_t>(signal_of_cell[static_cast<std::size_t>(k)])];
        margins.min_eq1_slack = std::min(margins.min_eq1_slack, run.eq1[k].slack());
      }
    }
    for (const SignalMargins& margins : report.signals) {
      report.min_omega_slack = std::min(report.min_omega_slack, margins.omega.min_slack());
      report.min_eq1_slack = std::min(report.min_eq1_slack, margins.min_eq1_slack);
      // kNoMargin is +inf, so a comparison doubles as the "was observed"
      // test; unobserved margins would poison the gauge min/mean.
      if (margins.omega.min_slack() < kNoMargin)
        obs::gauge(obs::Gauge::kOmegaSlack, margins.omega.min_slack());
      if (margins.min_eq1_slack < kNoMargin)
        obs::gauge(obs::Gauge::kEq1Slack, margins.min_eq1_slack);
    }
  }

  // Phase 2: deterministic fault battery per cell.  The battery is first
  // enumerated into an ordered job list, then the (independent) scenarios
  // run in parallel; outcomes merge back in enumeration order.
  const sim::DelaySpace& space = compiled.delay_space();
  struct BatteryEntry {
    int cell = 0;
    Fault fault;
  };
  std::vector<BatteryEntry> battery;
  for (int k = 0; k < cells.num_cells(); ++k) {
    const Gate& mhs = circuit.gate(cells.cell_gate(k));
    // Stuck-at faults on all four input rails (set, reset, enable_set,
    // enable_reset).
    for (int pin = 0; pin < 4; ++pin) {
      for (const bool value : {false, true}) {
        Fault fault;
        fault.kind = FaultKind::kStuckAt;
        fault.net = mhs.inputs[static_cast<std::size_t>(pin)];
        fault.value = value;
        battery.push_back({k, fault});
      }
    }
    // Glitch pulses around the ω threshold on the SOP nets.
    for (int pin = 0; pin < 2; ++pin) {
      for (const double rel : options.glitch_widths) {
        Fault fault;
        fault.kind = FaultKind::kGlitch;
        fault.net = mhs.inputs[static_cast<std::size_t>(pin)];
        fault.value = true;
        fault.time = options.glitch_time;
        fault.width = rel * omega;
        battery.push_back({k, fault});
      }
    }
    // Slow-outlier delay on each SOP driver gate.
    if (options.delay_outliers) {
      for (int pin = 0; pin < 2; ++pin) {
        const GateId driver = compiled.driver(mhs.inputs[static_cast<std::size_t>(pin)]);
        if (driver < 0 || space.fixed(driver)) continue;
        Fault fault;
        fault.kind = FaultKind::kDelayOutlier;
        fault.gate = driver;
        fault.delay = space.hi(driver) * options.outlier_factor;
        battery.push_back({k, fault});
      }
    }
  }

  {
    const obs::Span battery_span("battery");
    obs::count(obs::Counter::kFaultsInjected, static_cast<long>(battery.size()));
    std::vector<FaultOutcome> outcomes(battery.size());
    exec::parallel_for_chunks(
        static_cast<int>(battery.size()),
        options.grain > 0
            ? options.grain
            : exec::batch_grain(static_cast<int>(battery.size()), options.jobs),
        [&](int begin, int end) {
          sim::TrialEngine engine(compiled, options.reference_kernels);
          for (int j = begin; j < end; ++j) {
            const BatteryEntry& entry = battery[static_cast<std::size_t>(j)];
            FaultOutcome outcome;
            outcome.fault = entry.fault;
            outcome.signal = cells.cell_signal(entry.cell);
            outcome.description = describe_fault(entry.fault, circuit);
            FaultScenario scenario;
            scenario.seed = options.seed;
            scenario.faults.push_back(entry.fault);
            const sim::ConformanceReport run =
                run_scenario(spec, binding, scenario, options.run, engine);
            outcome.survived = run.clean();
            if (!run.violations.empty())
              outcome.violation =
                  std::string(sim::violation_kind_name(run.violations.front().kind)) + ": " +
                  run.violations.front().description;
            outcomes[static_cast<std::size_t>(j)] = std::move(outcome);
          }
        },
        options.jobs);
    for (std::size_t j = 0; j < outcomes.size(); ++j) {
      SignalMargins& margins = report.signals[static_cast<std::size_t>(
          signal_of_cell[static_cast<std::size_t>(battery[j].cell)])];
      (outcomes[j].survived ? margins.faults_survived : margins.faults_failed) += 1;
      report.outcomes.push_back(std::move(outcomes[j]));
    }
  }

  // Phase 3: adversarial delay-stress search.
  if (options.adversarial.restarts > 0) {
    AdversarialOptions adversarial = options.adversarial;
    adversarial.reference_kernels |= options.reference_kernels;
    report.adversarial = adversarial_delay_search(spec, circuit, adversarial);
    report.adversarial_ran = true;
  }
  return report;
}

std::string stress_report_json(const StressReport& report) {
  JsonWriter json;
  json.begin_object();
  json.key("benchmark").value(report.benchmark);
  json.key("margin_runs").value(report.margin_runs);
  json.key("baseline_clean").value(report.baseline_clean);
  json.key("min_omega_slack").value(report.min_omega_slack);
  json.key("min_eq1_slack").value(report.min_eq1_slack);

  json.key("signals").begin_array();
  for (const SignalMargins& margins : report.signals) {
    json.begin_object();
    json.key("signal").value(margins.signal);
    json.key("omega").begin_object();
    json.key("fired").value(margins.omega.fired);
    json.key("absorbed").value(margins.omega.absorbed);
    json.key("min_fire_slack").value(margins.omega.min_fire_slack);
    json.key("min_absorb_slack").value(margins.omega.min_absorb_slack);
    json.end_object();
    json.key("min_eq1_slack").value(margins.min_eq1_slack);
    json.key("faults_survived").value(margins.faults_survived);
    json.key("faults_failed").value(margins.faults_failed);
    json.end_object();
  }
  json.end_array();

  json.key("faults").begin_array();
  for (const FaultOutcome& outcome : report.outcomes) {
    json.begin_object();
    json.key("kind").value(fault_kind_name(outcome.fault.kind));
    json.key("signal").value(outcome.signal);
    json.key("description").value(outcome.description);
    json.key("survived").value(outcome.survived);
    if (outcome.survived)
      json.key("violation").null();
    else
      json.key("violation").value(outcome.violation);
    json.end_object();
  }
  json.end_array();

  if (report.adversarial_ran) {
    const AdversarialResult& adv = report.adversarial;
    json.key("adversarial").begin_object();
    json.key("violation_found").value(adv.violation_found);
    json.key("best_slack").value(adv.best_slack);
    json.key("env_seed").value(adv.env_seed);
    json.key("evaluations").value(adv.evaluations);
    json.key("violations");
    write_violations(json, adv.report);
    json.end_object();
  } else {
    json.key("adversarial").null();
  }
  json.end_object();
  return json.str();
}

std::string witness_json(const MinimizedWitness& witness, const netlist::Netlist& circuit) {
  JsonWriter json;
  json.begin_object();
  json.key("reproduced").value(witness.reproduced);
  json.key("seed").value(witness.scenario.seed);
  json.key("faults_removed").value(witness.faults_removed);
  json.key("delays_reset").value(witness.delays_reset);
  json.key("off_nominal_gates").value(witness.off_nominal_gates);
  json.key("evaluations").value(witness.evaluations);

  json.key("faults").begin_array();
  for (const Fault& fault : witness.scenario.faults) {
    json.begin_object();
    json.key("kind").value(fault_kind_name(fault.kind));
    json.key("description").value(describe_fault(fault, circuit));
    json.end_object();
  }
  json.end_array();

  // The delay perturbations the failure still needs, by gate name.
  const std::vector<double> nominal =
      sim::DelaySpace(circuit, gatelib::GateLibrary::standard()).nominal_vector();
  json.key("off_nominal_delays").begin_array();
  for (std::size_t g = 0; g < witness.scenario.delays.size(); ++g) {
    if (witness.scenario.delays[g] == nominal[g]) continue;
    json.begin_object();
    json.key("gate").value(circuit.gate(static_cast<GateId>(g)).name);
    json.key("delay").value(witness.scenario.delays[g]);
    json.key("nominal").value(nominal[g]);
    json.end_object();
  }
  json.end_array();

  json.key("violations");
  write_violations(json, witness.report);
  json.end_object();
  return json.str();
}

}  // namespace nshot::faults
