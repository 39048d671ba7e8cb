#include "faults/adversarial.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <unordered_map>

#include "exec/cancel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/obs.hpp"
#include "sim/delay_space.hpp"
#include "sim/trial_batch.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nshot::faults {

namespace {

/// The concrete search box: per-gate [lo, hi] bounds plus the list of
/// gates the search may move.  Simple gates get the library interval
/// stretched by the stress factor; delay lines join the box only when
/// shaving is enabled (bounds [0, installed delay] — under-compensation
/// only, a longer line never hurts Eq. 1).
struct SearchSpace {
  std::vector<double> lo, hi;
  std::vector<netlist::GateId> movable;
};

SearchSpace make_space(const netlist::Netlist& circuit, const sim::DelaySpace& space,
                       const AdversarialOptions& options) {
  NSHOT_REQUIRE(options.stress_factor >= 1.0, "stress factor must be >= 1");
  SearchSpace box;
  const std::size_t n = static_cast<std::size_t>(circuit.num_gates());
  box.lo.resize(n);
  box.hi.resize(n);
  for (netlist::GateId g = 0; g < circuit.num_gates(); ++g) {
    const std::size_t i = static_cast<std::size_t>(g);
    box.lo[i] = space.stressed_lo(g, options.stress_factor);
    box.hi[i] = space.stressed_hi(g, options.stress_factor);
    if (!space.fixed(g)) {
      box.movable.push_back(g);
    } else if (options.shave_delay_lines &&
               circuit.gate(g).type == gatelib::GateType::kDelayLine) {
      box.lo[i] = 0.0;
      box.movable.push_back(g);
    }
  }
  return box;
}

std::vector<double> sample_uniform(const SearchSpace& box, const sim::DelaySpace& space,
                                   Rng& rng) {
  std::vector<double> delays = space.nominal_vector();
  for (const netlist::GateId g : box.movable) {
    const std::size_t i = static_cast<std::size_t>(g);
    delays[i] = box.lo[i] >= box.hi[i] ? box.lo[i] : rng.next_double(box.lo[i], box.hi[i]);
  }
  return delays;
}

struct Evaluation {
  double score = kNoMargin;  // min slack; -inf when the run violated
  ProbedRun run;
};

Evaluation evaluate(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                    std::vector<double> delays, std::uint64_t env_seed,
                    const ScenarioOptions& options) {
  FaultScenario scenario;
  scenario.seed = env_seed;
  scenario.delays = std::move(delays);
  Evaluation eval;
  eval.run = run_probed(spec, circuit, scenario, options);
  eval.score = eval.run.report.violations.empty() ? eval.run.min_slack : -kNoMargin;
  return eval;
}

Evaluation evaluate(const sg::StateGraph& spec, const sim::SpecBinding& binding,
                    const sim::CompiledNetlist& compiled, std::vector<double> delays,
                    std::uint64_t env_seed, const ScenarioOptions& options,
                    sim::Simulator* reuse) {
  FaultScenario scenario;
  scenario.seed = env_seed;
  scenario.delays = std::move(delays);
  Evaluation eval;
  eval.run = run_probed(spec, binding, compiled, scenario, options, reuse);
  eval.score = eval.run.report.violations.empty() ? eval.run.min_slack : -kNoMargin;
  return eval;
}

Evaluation evaluate(const sg::StateGraph& spec, const sim::SpecBinding& binding,
                    std::vector<double> delays, std::uint64_t env_seed,
                    const ScenarioOptions& options, sim::TrialRunner& runner,
                    MarginProbe* probe) {
  FaultScenario scenario;
  scenario.seed = env_seed;
  scenario.delays = std::move(delays);
  Evaluation eval;
  eval.run = run_probed(spec, binding, scenario, options, runner, probe);
  eval.score = eval.run.report.violations.empty() ? eval.run.min_slack : -kNoMargin;
  return eval;
}

}  // namespace

namespace {

/// The best point one hill-climb restart found, plus its cost.  Restarts
/// are fully independent — each derives its environment stream and climb
/// RNG from (seed, restart) alone — so they can run on any thread.
struct RestartOutcome {
  double best_score = kNoMargin;
  double best_slack = kNoMargin;
  std::vector<double> delays;
  std::uint64_t env_seed = 0;
  sim::ConformanceReport report;
  bool violation_found = false;
  long evaluations = 0;
  long memo_hits = 0;  // proposals scored from the memo, not simulated
};

/// A restart's memo key: the bit patterns of the movable gates' delays
/// (the only entries a proposal ever changes).  Bit patterns keep equality
/// and hashing consistent; equal bits mean an identical delay vector.
using PointKey = std::vector<std::uint64_t>;

struct PointKeyHash {
  std::size_t operator()(const PointKey& key) const {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const std::uint64_t word : key) hash = (hash ^ word) * 0x100000001b3ULL;
    return static_cast<std::size_t>(hash ^ (hash >> 32));
  }
};

RestartOutcome climb_restart(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                             const SearchSpace& box, const sim::DelaySpace& space,
                             const AdversarialOptions& options, int restart,
                             const sim::SpecBinding& binding,
                             const sim::CompiledNetlist& compiled) {
  // One environment stream per restart keeps the objective deterministic
  // in the delay vector, so accepted steps are genuine descents.
  const std::uint64_t env_seed = run_seed(options.seed, restart);
  Rng rng(env_seed ^ 0xadce5a17ULL);

  // The whole climb is a serial evaluate loop — the prime engine-reuse
  // site.  Engine three-way: uncompiled reference kernels, the frozen
  // pre-batch compiled driver, or (default) the calendar-queue
  // TrialRunner with a restart-reused MarginProbe.
  std::optional<sim::Simulator> reuse;
  std::optional<sim::TrialRunner> runner;
  std::optional<MarginProbe> probe;
  if (!options.reference_kernels) {
    if (options.reference_driver) {
      reuse.emplace(compiled, sim::SimulatorOptions{});
    } else {
      runner.emplace(compiled);
      probe.emplace(compiled.netlist(), compiled.lib());
    }
  }
  // Objective memo.  With env_seed fixed the score is a pure function of
  // the delay vector, and a climb over a few movable gates with corner
  // snaps revisits points often.  A hit returns nullopt and only its score:
  // the point was either accepted earlier (take_best saw it then) or
  // rejected with a score above an incumbent that never rises since, so
  // take_best could not take it; a violating point ends the climb the
  // first time, so no hit is a violation.
  std::unordered_map<PointKey, double, PointKeyHash> scored;
  RestartOutcome out;
  auto eval_point = [&](const std::vector<double>& delays,
                        double& score) -> std::optional<Evaluation> {
    PointKey key;
    key.reserve(box.movable.size());
    for (const netlist::GateId g : box.movable)
      key.push_back(std::bit_cast<std::uint64_t>(delays[static_cast<std::size_t>(g)]));
    if (const auto hit = scored.find(key); hit != scored.end()) {
      ++out.memo_hits;
      score = hit->second;
      return std::nullopt;
    }
    Evaluation eval =
        options.reference_kernels
            ? evaluate(spec, circuit, delays, env_seed, options.run)
        : options.reference_driver
            ? evaluate(spec, binding, compiled, delays, env_seed, options.run, &*reuse)
            : evaluate(spec, binding, delays, env_seed, options.run, *runner, &*probe);
    score = eval.score;
    scored.emplace(std::move(key), score);
    return eval;
  };

  out.env_seed = env_seed;

  std::vector<double> current = sample_uniform(box, space, rng);
  double current_score = kNoMargin;
  const Evaluation eval = *eval_point(current, current_score);
  ++out.evaluations;
  auto take_best = [&](const std::vector<double>& delays, const Evaluation& e) {
    if (e.score < out.best_score || out.delays.empty()) {
      out.best_score = e.score;
      out.best_slack = e.run.min_slack;
      out.delays = delays;
      out.report = e.run.report;
      out.violation_found = !e.run.report.violations.empty();
    }
  };
  take_best(current, eval);

  for (int it = 0; it < options.iterations && !out.violation_found; ++it) {
    exec::checkpoint();
    if (box.movable.empty()) break;
    std::vector<double> candidate = current;
    const netlist::GateId g = box.movable[rng.next_below(box.movable.size())];
    const std::size_t i = static_cast<std::size_t>(g);
    if (rng.next_bool(0.6)) {
      // Corner snap: extreme delays expose the cliffs far more often
      // than interior points do.
      candidate[i] = rng.next_bool() ? box.hi[i] : box.lo[i];
    } else if (box.lo[i] < box.hi[i]) {
      candidate[i] = rng.next_double(box.lo[i], box.hi[i]);
    }
    double score = kNoMargin;
    const std::optional<Evaluation> step = eval_point(candidate, score);
    ++out.evaluations;
    if (score <= current_score) {  // accept sideways moves too
      current = std::move(candidate);
      current_score = score;
      if (step) take_best(current, *step);
    }
  }
  return out;
}

}  // namespace

AdversarialResult adversarial_delay_search(const sg::StateGraph& spec,
                                           const netlist::Netlist& circuit,
                                           const AdversarialOptions& options) {
  const obs::Span span("adversarial");
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(spec, circuit);
  const sim::DelaySpace& space = compiled.delay_space();
  const SearchSpace box = make_space(circuit, space, options);

  std::vector<RestartOutcome> restarts = exec::parallel_map<RestartOutcome>(
      options.restarts,
      [&](int r) { return climb_restart(spec, circuit, box, space, options, r, binding, compiled); },
      options.jobs);

  // Merge in restart order, reproducing the serial sweep exactly: a strict
  // improvement replaces the incumbent (first restart wins ties) and
  // restarts after the first violating one are discarded — the serial loop
  // would never have run them, so neither their best point nor their
  // evaluation count may leak into the result.
  AdversarialResult result;
  double best_score = kNoMargin;
  for (RestartOutcome& out : restarts) {
    result.evaluations += out.evaluations;
    if (out.best_score < best_score || result.delays.empty()) {
      best_score = out.best_score;
      result.best_slack = out.best_slack;
      result.delays = std::move(out.delays);
      result.env_seed = out.env_seed;
      result.report = std::move(out.report);
      result.violation_found = out.violation_found;
    }
    if (result.violation_found) break;
  }
  // All restarts' evaluations, not just the merged ones: the counter
  // reflects work actually done, so it is nondeterministic across jobs
  // (parallel restarts past a violation still ran).
  for (const RestartOutcome& out : restarts) {
    obs::count(obs::Counter::kAdversarialEvaluations, out.evaluations);
    obs::count(obs::Counter::kAdversarialMemoHits, out.memo_hits);
  }
  return result;
}

MonteCarloResult stressed_monte_carlo(const sg::StateGraph& spec,
                                      const netlist::Netlist& circuit, int runs,
                                      const AdversarialOptions& options) {
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(spec, circuit);
  const sim::DelaySpace& space = compiled.delay_space();
  const SearchSpace box = make_space(circuit, space, options);

  struct Trial {
    bool violated = false;
    double min_slack = kNoMargin;
  };
  std::vector<Trial> trials(static_cast<std::size_t>(std::max(runs, 0)));
  exec::parallel_for_chunks(
      runs, options.grain > 0 ? options.grain : exec::batch_grain(runs, options.jobs),
      [&](int begin, int end) {
        std::optional<sim::Simulator> reuse;
        std::optional<sim::TrialRunner> runner;
        std::optional<MarginProbe> probe;
        if (!options.reference_kernels) {
          if (options.reference_driver) {
            reuse.emplace(compiled, sim::SimulatorOptions{});
          } else {
            runner.emplace(compiled);
            probe.emplace(compiled.netlist(), compiled.lib());
          }
        }
        for (int r = begin; r < end; ++r) {
          const std::uint64_t seed = run_seed(options.seed, r);
          Rng rng(seed);
          const Evaluation eval =
              options.reference_kernels
                  ? evaluate(spec, circuit, sample_uniform(box, space, rng), seed, options.run)
              : options.reference_driver
                  ? evaluate(spec, binding, compiled, sample_uniform(box, space, rng), seed,
                             options.run, &*reuse)
                  : evaluate(spec, binding, sample_uniform(box, space, rng), seed, options.run,
                             *runner, &*probe);
          trials[static_cast<std::size_t>(r)] =
              Trial{!eval.run.report.violations.empty(), eval.run.min_slack};
        }
      },
      options.jobs);

  MonteCarloResult result;
  result.runs = runs;
  for (const Trial& trial : trials) {
    if (trial.violated) ++result.violating_runs;
    result.min_slack = std::min(result.min_slack, trial.min_slack);
  }
  return result;
}

}  // namespace nshot::faults
