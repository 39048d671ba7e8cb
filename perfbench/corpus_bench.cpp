// corpus_bench — the corpus benchmark's measuring program.
//
//   corpus_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--setup-only] [--commit TEXT]
//
// Every workload is a closed loop in this one process over the 25-circuit
// Table 2 corpus (bench_suite::all_benchmarks()), in an order shuffled on
// every pass from --seed.  Each run attempts whole passes until --seconds
// of timed work have been spent, so the share of failed requests is the
// same in every run.
//
//   cold-heuristic  one caller, Pipeline::submit kind=synthesis jobs=1,
//                   minimization memo off: every request pays ESPRESSO.
//   cold-exact      the same with exact=1 and deadline_ms=1000: prime
//                   generation and covering.  master-read and tsbmsiBRK
//                   fail with deadline_exceeded on every pass (prime
//                   enumeration in logic/exact.cpp visits every implicant,
//                   not only the primes); any other failure fails the run.
//   serve-stress    an in-process serve::Server on its Unix socket, two
//                   client connections sending kind=stress jobs=2; the
//                   memo is warmed in setup, so the fault battery and the
//                   simulator do the work.
//
// --trace 0 times requests through the public entry points and prints the
// end-to-end metrics; --trace 1 makes separate traced passes that call the
// public functions a request runs, one by one, inside the benchmark's own
// spans, and prints the per-layer metrics.  Both check every output with
// the independent checks of checks.hpp.  The last stdout line is the
// result object {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "bench_suite/benchmarks.hpp"
#include "checks.hpp"
#include "exec/cancel.hpp"
#include "exec/thread_pool.hpp"
#include "faults/stress.hpp"
#include "logic/espresso.hpp"
#include "logic/exact.hpp"
#include "logic/verify.hpp"
#include "nshot/pipeline.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "sim/conformance.hpp"
#include "util/json_value.hpp"

namespace {

using namespace nshot;
using Clock = std::chrono::steady_clock;

// The earliest point this program can observe: setup_s counts from here.
const Clock::time_point g_process_start = Clock::now();

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double now_ms() { return ms_between(g_process_start, Clock::now()); }

constexpr double kExactDeadlineMs = 1000.0;
const std::set<std::string> kNamedExactFailures = {"master-read", "tsbmsiBRK"};
const char* const kWarmupCircuit = "pmcm2";

struct Workload {
  std::string name;
  bool exact = false;
  bool serve = false;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"cold-heuristic", false, false},
      {"cold-exact", true, false},
      {"serve-stress", false, true},
  };
  return all;
}

struct Args {
  Workload workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string commit = "unknown";
};

// ---------------------------------------------------------------------------
// Requests, the corpus and the checks
// ---------------------------------------------------------------------------

Request make_request(const Workload& workload, const std::string& circuit) {
  Request request;
  request.id = circuit;
  request.spec = "bench:" + circuit;
  request.kind = workload.serve ? "stress" : "synthesis";
  request.overrides["jobs"] = workload.serve ? "2" : "1";
  if (workload.exact) {
    request.overrides["exact"] = "1";
    request.overrides["deadline_ms"] = std::to_string(static_cast<int>(kExactDeadlineMs));
  }
  return request;
}

/// The base options every workload's pipeline runs with: the program's own
/// observability session stays off (the end-to-end runs are untraced) and
/// the cold workloads bypass the minimization memo.
PipelineOptions base_options(const Workload& workload) {
  PipelineOptions options;
  options.collect_observability = false;
  options.synthesis.memoize_minimization = workload.serve;
  return options;
}

struct Circuit {
  std::string name;
  std::vector<perfbench::OutputSets> sets;  // region-rule oracle
};

/// The corpus in paper order, with each circuit's region-rule sets built
/// from a state graph of its own.
std::vector<Circuit> load_corpus() {
  std::vector<Circuit> corpus;
  for (const auto& info : bench_suite::all_benchmarks())
    corpus.push_back({info.name, perfbench::region_rule_sets(info.build())});
  return corpus;
}

/// Accumulates check failures; the run is correct while it stays empty.
struct Verdict {
  std::vector<std::string> problems;
  void fail(const std::string& what) {
    if (problems.size() < 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
    problems.push_back(what);
  }
  bool ok() const { return problems.empty(); }
};

/// Per circuit of cold-exact: for each output where exact_minimize_output
/// returns a cover, ESPRESSO's cube count for that output of the same
/// spec; nullopt where exact falls back to the heuristic.
using ExactBounds = std::vector<std::optional<int>>;

ExactBounds exact_bounds(const logic::TwoLevelSpec& spec, const core::SynthesisOptions& options) {
  logic::EspressoOptions espresso_options = options.espresso;
  espresso_options.share_outputs = options.share_products;
  const logic::Cover heuristic = logic::espresso(spec, espresso_options);
  logic::ExactOptions exact_options;
  ExactBounds bounds(static_cast<std::size_t>(spec.num_outputs()));
  for (int o = 0; o < spec.num_outputs(); ++o)
    if (!spec.on(o).empty() && logic::exact_minimize_output(spec, o, exact_options))
      bounds[static_cast<std::size_t>(o)] = heuristic.cube_count_for_output(o);
  return bounds;
}

/// The checks of one in-process response (the cold workloads, and the
/// serve-stress reference pass).
class ResponseChecker {
 public:
  ResponseChecker(const Workload& workload, const std::vector<Circuit>& corpus)
      : workload_(workload), options_(base_options(workload)) {
    for (const Circuit& circuit : corpus) sets_[circuit.name] = &circuit.sets;
  }

  void check(const std::string& circuit, const Response& response, Verdict& verdict) {
    const bool must_fail = workload_.exact && kNamedExactFailures.count(circuit);
    if (must_fail) {
      if (response.outcome.ok() || response.outcome.code != ErrorCode::kDeadlineExceeded)
        verdict.fail(circuit + ": expected deadline_exceeded, got " +
                     (response.outcome.ok() ? std::string("success")
                                            : error_code_name(response.outcome.code)));
      return;
    }
    if (!response.outcome.ok()) {
      verdict.fail(circuit + ": request failed: " + response.outcome.message);
      return;
    }
    const PipelineRun& run = *response.outcome.run;
    const std::string cover_problem = perfbench::check_cover(*sets_.at(circuit),
                                                             run.synthesis.cover);
    if (!cover_problem.empty()) verdict.fail(circuit + ": region rule: " + cover_problem);
    if (workload_.serve) {
      if (!run.ok()) verdict.fail(circuit + ": reference run is not clean");
      return;
    }
    if (!workload_.exact) return;
    auto it = bounds_.find(circuit);
    if (it == bounds_.end())
      it = bounds_.emplace(circuit, exact_bounds(run.synthesis.derived.spec, options_.synthesis))
               .first;
    for (std::size_t o = 0; o < it->second.size(); ++o) {
      if (!it->second[o]) continue;
      const int exact = run.synthesis.cover.cube_count_for_output(static_cast<int>(o));
      if (exact > *it->second[o])
        verdict.fail(circuit + ": exact output " + std::to_string(o) + " has " +
                     std::to_string(exact) + " cubes, ESPRESSO " + std::to_string(*it->second[o]));
    }
  }

 private:
  Workload workload_;
  PipelineOptions options_;
  std::map<std::string, const std::vector<perfbench::OutputSets>*> sets_;
  std::map<std::string, ExactBounds> bounds_;
};

/// Cut the trailing "elapsed_ms"/"attempts" members off a wire response:
/// what remains is exactly Response::payload_json().
std::string strip_timing(const std::string& line) {
  const std::size_t pos = line.rfind(",\"elapsed_ms\":");
  return pos == std::string::npos ? line : line.substr(0, pos) + "}";
}

/// Checks of one serve-stress wire response; returns its elapsed_ms.
double check_wire(const std::string& circuit, const std::string& line, Verdict& verdict) {
  if (line.empty()) {
    verdict.fail(circuit + ": connection closed before the response");
    return 0.0;
  }
  const JsonValue doc = parse_json(line, "response line");
  if (!doc.bool_or("ok", false)) {
    verdict.fail(circuit + ": request failed: " + line);
    return doc.number_or("elapsed_ms", 0.0);
  }
  if (!doc.bool_or("clean", false)) verdict.fail(circuit + ": response is not clean");
  const JsonValue* conformance = doc.find("conformance");
  if (!conformance || conformance->number_or("violations", -1) != 0)
    verdict.fail(circuit + ": conformance violations in " + line);
  const JsonValue* stress = doc.find("stress");
  if (!stress || !stress->bool_or("baseline_clean", false))
    verdict.fail(circuit + ": stress baseline is not clean");
  return doc.number_or("elapsed_ms", 0.0);
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Per request type (circuit x kind) latency samples of the timed phase.
struct LatencyBook {
  std::map<std::string, std::vector<double>> by_type;
  void add(const std::string& type, double ms) { by_type[type].push_back(ms); }

  double geomean_of_medians() const {
    double log_sum = 0.0;
    for (const auto& [type, samples] : by_type) log_sum += std::log(median(samples));
    return by_type.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(by_type.size()));
  }
  double worst_median() const {
    double worst = 0.0;
    for (const auto& [type, samples] : by_type) worst = std::max(worst, median(samples));
    return worst;
  }
};

// ---------------------------------------------------------------------------
// The benchmark's own spans
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  double start_ms = 0.0;  // since process start
  double end_ms = 0.0;
  int request = 0;        // spans of one request share this id
};

/// In-memory span store, written out once at the end of the run.
class Tracer {
 public:
  /// Run `fn` inside a span; returns what `fn` returns.
  template <typename Fn>
  auto span(const std::string& name, int request, Fn&& fn) {
    const double start_ms = now_ms();
    auto value = fn();
    record(name, request, start_ms, now_ms());
    return value;
  }

  /// Record a span whose ends (ms since process start) were taken elsewhere.
  void record(const std::string& name, int request, double start_ms, double end_ms) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start_ms, end_ms, request});
  }

  /// Total span time per name.
  std::map<std::string, double> totals() const {
    std::map<std::string, double> totals;
    for (const SpanRecord& span : spans_) totals[span.name] += span.end_ms - span.start_ms;
    return totals;
  }

  /// Milliseconds of [from, to) covered by at least one span.
  double covered_ms(double from, double to) const {
    std::vector<std::pair<double, double>> cut;
    for (const SpanRecord& span : spans_) {
      const double a = std::max(span.start_ms, from), b = std::min(span.end_ms, to);
      if (b > a) cut.emplace_back(a, b);
    }
    std::sort(cut.begin(), cut.end());
    double covered = 0.0, reach = from;
    for (const auto& [a, b] : cut) {
      if (b <= reach) continue;
      covered += b - std::max(a, reach);
      reach = b;
    }
    return covered;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Chrome trace_event JSON (complete events, microseconds).
  void write(const std::string& path) const {
    std::filesystem::create_directories(std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& span = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"request\":%d}}",
                    i ? "," : "", span.name.c_str(), span.start_ms * 1000.0,
                    (span.end_ms - span.start_ms) * 1000.0, span.request);
      out << buf;
    }
    out << "\n]}\n";
  }

 private:
  std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// Run `fn` under a wall-clock budget the way a pipeline stage does (a
/// CancelToken installed thread-current plus a Watchdog); false when the
/// budget ran out.
template <typename Fn>
bool within_deadline(double budget_ms, Fn&& fn) {
  if (budget_ms <= 0) {
    fn();
    return true;
  }
  const exec::CancelToken token = exec::CancelToken::with_deadline(budget_ms);
  const exec::CancelScope scope(token);
  const exec::Watchdog watchdog(token, budget_ms, "traced call exceeded its deadline");
  try {
    fn();
    return true;
  } catch (const Error& e) {
    if (e.code() != ErrorCode::kDeadlineExceeded) throw;
    return false;
  }
}

/// Counts gathered next to the spans of a traced run.
struct LayerCounts {
  long states = 0;
  long offset_minterms = 0;
  long cover_cubes = 0;
  long primes = 0;
  long trials = 0;
  long sim_events = 0;
  long faults_injected = 0;
  long adversarial_evals = 0;
  /// Per circuit, synthesize's span minus its parts' spans, one sample per
  /// pass.  The minimizer part is a second run of the same call, so one
  /// sample carries the host's run-to-run noise on it; the per-circuit
  /// median does not.
  std::map<std::string, std::vector<double>> synthesize_self_ms;
};

/// One traced request: the public calls Pipeline::submit makes for it,
/// each inside its own span.  Returns false when the request failed.
bool traced_request(const Workload& workload, const PipelineOptions& options,
                    const Circuit& circuit, int request, Tracer& tracer, LayerCounts& counts,
                    Verdict& verdict) {
  const double deadline_ms = options.run.deadline_ms;
  const sg::StateGraph graph = tracer.span("stg.reachability", request, [&] {
    return bench_suite::build_benchmark(circuit.name);
  });
  counts.states += graph.num_states();

  std::optional<core::SynthesisResult> result;
  const Clock::time_point synth_t0 = Clock::now();
  const bool synthesized = tracer.span("nshot.synthesize", request, [&] {
    return within_deadline(deadline_ms,
                           [&] { result.emplace(core::synthesize(graph, options.synthesis)); });
  });
  const double synthesize_ms = ms_between(synth_t0, Clock::now());

  double parts_ms = 0.0;
  const auto part = [&](const std::string& name, auto&& fn) {
    const Clock::time_point t0 = Clock::now();
    auto value = tracer.span(name, request, fn);
    parts_ms += ms_between(t0, Clock::now());
    return value;
  };

  part("sg.implementability", [&] { return sg::check_implementability(graph); });
  const core::DerivedSpec derived = part("nshot.derive_spec", [&] {
    return core::derive_spec(graph);
  });
  for (int o = 0; o < derived.spec.num_outputs(); ++o)
    counts.offset_minterms += static_cast<long>(derived.spec.off(o).size());

  // The minimizer runs inside the request only on the cold workloads; on
  // serve-stress the request's minimization is a memo hit.
  if (!workload.serve && !workload.exact) {
    logic::EspressoOptions espresso_options = options.synthesis.espresso;
    espresso_options.share_outputs = options.synthesis.share_products;
    const logic::Cover cover = part("logic.espresso", [&] {
      return logic::espresso(derived.spec, espresso_options);
    });
    counts.cover_cubes += static_cast<long>(cover.size());
  } else if (workload.exact) {
    logic::ExactOptions exact_options;
    exact_options.jobs = options.synthesis.jobs;
    // Prime generation runs again inside exact_minimize, so its span is
    // not one of synthesize's parts.
    long primes = 0;  // counted only when every output finishes in time
    const bool primed = tracer.span("logic.prime_gen", request, [&] {
      return within_deadline(deadline_ms, [&] {
        for (int o = 0; o < derived.spec.num_outputs(); ++o)
          if (!derived.spec.on(o).empty())
            if (const auto output_primes = logic::generate_primes(derived.spec, o, exact_options))
              primes += static_cast<long>(output_primes->size());
      });
    });
    if (!primed) return false;
    counts.primes += primes;
    part("logic.exact", [&] {
      return within_deadline(deadline_ms,
                             [&] { logic::exact_minimize(derived.spec, exact_options); });
    });
  }
  if (!synthesized) return false;
  const std::string cover_problem = perfbench::check_cover(circuit.sets, result->cover);
  if (!cover_problem.empty()) verdict.fail(circuit.name + ": region rule: " + cover_problem);

  const logic::VerifyResult verified = part("logic.verify_cover", [&] {
    return logic::verify_cover(derived.spec, result->cover);
  });
  if (!verified.ok) return false;
  const std::vector<sg::SignalRegions> regions = part("sg.regions", [&] {
    return sg::compute_all_regions(graph);
  });
  logic::Cover cover = result->cover;
  part("nshot.trigger", [&] {
    return core::enforce_trigger_requirement(graph, regions, derived, cover);
  });
  counts.synthesize_self_ms[circuit.name].push_back(synthesize_ms - parts_ms);

  if (!workload.serve) return true;
  const sim::ConformanceReport conformance = tracer.span("sim.conformance", request, [&] {
    return sim::check_conformance(graph, result->circuit, options.conformance);
  });
  counts.trials += conformance.runs;
  counts.sim_events += conformance.external_transitions + conformance.internal_toggles;
  const faults::StressReport stress = tracer.span("faults.stress", request, [&] {
    return faults::run_stress(graph, result->circuit, circuit.name, options.stress);
  });
  counts.faults_injected += static_cast<long>(stress.outcomes.size());
  counts.adversarial_evals += stress.adversarial.evaluations;
  return conformance.clean() && stress.baseline_clean;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, long attempted, long failed, const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

void print_host_stamp(const Args& args) {
  char host[256] = {};
  if (gethostname(host, sizeof host - 1) != 0) std::strcpy(host, "unknown");
  std::printf(
      "{\"host\": {\"hostname\": \"%s\", \"nproc\": %u, \"hardware_jobs\": %d, "
      "\"compiler\": \"%s\", \"flags\": \"%s\", \"build_type\": \"%s\", \"commit\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
      host, std::thread::hardware_concurrency(), exec::hardware_jobs(), PERFBENCH_COMPILER,
      PERFBENCH_FLAGS, PERFBENCH_BUILD_TYPE, args.commit.c_str(), args.workload.name.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
}

// ---------------------------------------------------------------------------
// The serve-stress transport
// ---------------------------------------------------------------------------

/// The in-process server on its Unix socket plus the two client
/// connections.  Members are destroyed clients first, then the listener,
/// then the (draining) server.
class ServeRig {
 public:
  explicit ServeRig(const PipelineOptions& pipeline)
      : server_(serve_options(pipeline)),
        listener_(socket_path(), server_) {
    for (int c = 0; c < kClients; ++c)
      clients_.push_back(std::make_unique<serve::SocketClient>(listener_.path()));
  }

  static constexpr int kClients = 2;

  serve::Server& server() { return server_; }

  struct Sample {
    std::string circuit;
    std::string line;
    double roundtrip_ms = 0.0;
    double start_ms = 0.0;  // since process start
  };

  /// One pass over `order`: each connection takes the next circuit as soon
  /// as its previous response arrived.  Returns the pass wall time.
  double pass(const Workload& workload, const std::vector<std::string>& order,
              std::vector<Sample>& samples) {
    samples.assign(order.size(), {});
    std::atomic<std::size_t> next{0};
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        serve::WireRequest wire;
        wire.client = "client-" + std::to_string(c);
        for (std::size_t i = next++; i < order.size(); i = next++) {
          wire.request = make_request(workload, order[i]);
          const Clock::time_point a = Clock::now();
          std::string line;  // stays empty when the transport fails
          try {
            line = clients_[static_cast<std::size_t>(c)]->roundtrip(wire);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "corpus_bench: %s: %s\n", order[i].c_str(), e.what());
          }
          const Clock::time_point b = Clock::now();
          samples[i] = {order[i], std::move(line), ms_between(a, b),
                        ms_between(g_process_start, a)};
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    return ms_between(t0, Clock::now());
  }

 private:
  static serve::ServeOptions serve_options(const PipelineOptions& pipeline) {
    serve::ServeOptions options;
    options.pipeline = pipeline;
    return options;
  }
  static std::string socket_path() {
    std::filesystem::create_directories(".bench_build");
    return ".bench_build/corpus_bench-" + std::to_string(getpid()) + ".sock";
  }

  serve::Server server_;
  serve::SocketListener listener_;
  std::vector<std::unique_ptr<serve::SocketClient>> clients_;
};

/// Moves the calling thread to the next allowed hardware thread on every
/// step(), round robin, and restores its affinity at the end.  On a shared
/// host each hardware thread slows down and recovers on its own schedule,
/// for seconds to minutes at a time; a single caller that stays on one of
/// them reports that one's luck.  Stepping once per pass spreads the
/// caller's passes evenly over all of them.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void step() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

class Bench {
 public:
  explicit Bench(Args args)
      : args_(std::move(args)),
        workload_(args_.workload),
        options_(base_options(workload_)),
        rng_(args_.seed) {}

  /// Everything before the first timed request; returns setup seconds.
  double setup() {
    corpus_ = load_corpus();
    for (const Circuit& circuit : corpus_) names_.push_back(circuit.name);
    checker_.emplace(workload_, corpus_);
    pipeline_.emplace(options_);
    if (workload_.serve) {
      rig_.emplace(options_);
      // Warm the process-wide minimization memo the server's pipeline
      // shares: every stress request of the timed phase is then a hit.
      for (const std::string& name : names_) {
        Request warm = make_request(workload_, name);
        warm.kind = "synthesis";
        const Response response = pipeline_->submit(warm);
        if (!response.outcome.ok()) verdict_.fail(name + ": memo warm-up failed");
      }
    } else {
      // First-use costs (thread pool, gate library) land in setup.
      pipeline_->submit(make_request(workload_, kWarmupCircuit));
    }
    return now_ms() / 1000.0;
  }

  int run() {
    const double setup_s = setup();
    if (args_.setup_only) {
      std::printf("{\"setup_s\": %.17g}\n", setup_s);
      return verdict_.ok() ? 0 : 1;
    }
    std::vector<Metric> metrics = args_.trace ? traced_run() : timed_run(setup_s);
    if (workload_.serve) reference_checks();
    print_result(verdict_.ok(), attempted_, failed_, metrics);
    return 0;
  }

 private:
  std::vector<std::string> shuffled() {
    std::vector<std::string> order = names_;
    std::shuffle(order.begin(), order.end(), rng_);
    return order;
  }

  const Circuit& circuit_of(const std::string& name) const {
    return *std::find_if(corpus_.begin(), corpus_.end(),
                         [&](const Circuit& circuit) { return circuit.name == name; });
  }

  std::string type_of(const std::string& circuit) const {
    return circuit + "/" + make_request(workload_, circuit).kind;
  }

  /// Count one answered request; the named cold-exact failures count as
  /// failed, anything else that failed was already reported by the checks.
  void tally(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  std::vector<Metric> timed_run(double setup_s) {
    LatencyBook book;
    CpuRotation rotation;
    double timed_ms = 0.0;
    while (timed_ms < args_.seconds * 1000.0) {
      if (!workload_.serve) rotation.step();
      const std::vector<std::string> order = shuffled();
      if (workload_.serve) {
        std::vector<ServeRig::Sample> samples;
        timed_ms += rig_->pass(workload_, order, samples);
        for (const ServeRig::Sample& sample : samples) {
          book.add(type_of(sample.circuit), sample.roundtrip_ms);
          check_wire(sample.circuit, sample.line, verdict_);
          wire_payloads_[sample.circuit].insert(strip_timing(sample.line));
          tally(!sample.line.empty() && parse_json(sample.line).bool_or("ok", false));
        }
      } else {
        std::vector<Response> responses;
        for (const std::string& circuit : order) {
          const Clock::time_point t0 = Clock::now();
          responses.push_back(pipeline_->submit(make_request(workload_, circuit)));
          const double ms = ms_between(t0, Clock::now());
          timed_ms += ms;
          book.add(type_of(circuit), ms);
        }
        for (std::size_t i = 0; i < order.size(); ++i) {
          checker_->check(order[i], responses[i], verdict_);
          tally(responses[i].outcome.ok());
        }
      }
    }
    return {{"setup_s", setup_s, "s"},
            {"throughput_rps", static_cast<double>(attempted_) / (timed_ms / 1000.0), "1/s"},
            {"latency_geomean_ms", book.geomean_of_medians(), "ms"},
            {"latency_worst_ms", book.worst_median(), "ms"}};
  }

  std::vector<Metric> traced_run() {
    Tracer tracer;
    LayerCounts counts;
    const core::MinimizationCacheStats memo0 = core::minimization_cache_stats();
    const long rejected0 = workload_.serve ? rig_->server().stats().rejected : 0;
    std::vector<double> service_ms, queue_wait_ms;
    double traced_wall_ms = 0.0, covered_ms = 0.0;
    int passes = 0, request = 0;
    CpuRotation rotation;
    while (traced_wall_ms < args_.seconds * 1000.0) {
      if (!workload_.serve) rotation.step();
      ++passes;
      const double from = now_ms();
      for (const std::string& name : shuffled()) {
        const Circuit& circuit = circuit_of(name);
        const PipelineOptions effective = request_options(options_, make_request(workload_, name));
        const bool ok =
            traced_request(workload_, effective, circuit, ++request, tracer, counts, verdict_);
        const bool must_fail = workload_.exact && kNamedExactFailures.count(name);
        if (ok == must_fail)
          verdict_.fail(name + (ok ? ": traced request met its deadline"
                                   : ": traced request failed"));
        tally(ok);
      }
      if (workload_.serve) {
        std::vector<ServeRig::Sample> samples;
        const std::vector<std::string> order = shuffled();
        rig_->pass(workload_, order, samples);
        for (const ServeRig::Sample& sample : samples) {
          tracer.record("serve.roundtrip", ++request, sample.start_ms,
                        sample.start_ms + sample.roundtrip_ms);
          const double service = check_wire(sample.circuit, sample.line, verdict_);
          service_ms.push_back(service);
          queue_wait_ms.push_back(sample.roundtrip_ms - service);
          tally(!sample.line.empty() && parse_json(sample.line).bool_or("ok", false));
        }
      }
      const double to = now_ms();
      traced_wall_ms += to - from;
      covered_ms += tracer.covered_ms(from, to);
    }
    const core::MinimizationCacheStats memo1 = core::minimization_cache_stats();
    const std::map<std::string, double> totals = tracer.totals();
    const auto per_pass = [&](const std::string& span) {
      const auto it = totals.find(span);
      return it == totals.end() ? 0.0 : it->second / passes;
    };
    const double conformance_s = per_pass("sim.conformance") * passes / 1000.0;

    tracer.write(".bench_build/traces/" + workload_.name + "-seed" + std::to_string(args_.seed) +
                 ".json");
    std::printf("{\"trace\": {\"passes\": %d, \"spans\": %zu, \"traced_wall_ms\": %.3f, "
                "\"top_level_coverage\": %.4f}}\n",
                passes, tracer.spans().size(), traced_wall_ms, covered_ms / traced_wall_ms);

    const double n = passes;
    double self_ms = 0.0;  // per pass: the sum over circuits of the median
    for (const auto& [circuit, samples] : counts.synthesize_self_ms) self_ms += median(samples);
    return {
        {"logic.espresso_ms", per_pass("logic.espresso"), "ms"},
        {"logic.offset_minterms", counts.offset_minterms / n, "count"},
        {"logic.cover_cubes", counts.cover_cubes / n, "count"},
        {"logic.prime_gen_ms", per_pass("logic.prime_gen"), "ms"},
        {"logic.primes", counts.primes / n, "count"},
        {"logic.exact_ms", per_pass("logic.exact"), "ms"},
        {"stg.reachability_ms", per_pass("stg.reachability"), "ms"},
        {"stg.states", counts.states / n, "count"},
        {"sg.implementability_ms", per_pass("sg.implementability"), "ms"},
        {"sg.regions_ms", per_pass("sg.regions"), "ms"},
        {"nshot.derive_spec_ms", per_pass("nshot.derive_spec"), "ms"},
        {"nshot.trigger_ms", per_pass("nshot.trigger"), "ms"},
        {"logic.verify_cover_ms", per_pass("logic.verify_cover"), "ms"},
        {"nshot.synthesize_self_ms", self_ms, "ms"},
        {"sim.conformance_ms", per_pass("sim.conformance"), "ms"},
        {"sim.trials", counts.trials / n, "count"},
        {"sim.events_per_s", conformance_s > 0 ? counts.sim_events / conformance_s : 0.0, "1/s"},
        {"faults.stress_ms", per_pass("faults.stress"), "ms"},
        {"faults.faults_injected", counts.faults_injected / n, "count"},
        {"faults.adversarial_evals", counts.adversarial_evals / n, "count"},
        {"exec.memo_hits", (memo1.hits - memo0.hits) / n, "count"},
        {"exec.memo_misses", (memo1.misses - memo0.misses) / n, "count"},
        {"serve.service_ms", median(service_ms), "ms"},
        {"serve.queue_wait_ms", median(queue_wait_ms), "ms"},
        {"serve.rejected",
         static_cast<double>(workload_.serve ? rig_->server().stats().rejected - rejected0 : 0),
         "count"},
        {"process.peak_rss_mb", obs::peak_rss_kb() / 1024.0, "MB"},
    };
  }

  /// serve-stress: every distinct wire payload must equal the payload of
  /// the same request through Pipeline::submit, and that run's cover must
  /// pass the region rule.  Runs after the measured phase.
  void reference_checks() {
    for (const std::string& circuit : names_) {
      const Response reference = pipeline_->submit(make_request(workload_, circuit));
      checker_->check(circuit, reference, verdict_);
      const std::string expected = reference.payload_json();
      for (const std::string& payload : wire_payloads_[circuit])
        if (payload != expected)
          verdict_.fail(circuit + ": socket payload differs from Pipeline::submit:\n  socket: " +
                        payload + "\n  submit: " + expected);
    }
  }

  Args args_;
  Workload workload_;
  PipelineOptions options_;
  std::mt19937_64 rng_;
  std::vector<Circuit> corpus_;
  std::vector<std::string> names_;
  std::optional<ResponseChecker> checker_;
  std::optional<Pipeline> pipeline_;
  std::optional<ServeRig> rig_;
  std::map<std::string, std::set<std::string>> wire_payloads_;
  Verdict verdict_;
  long attempted_ = 0;
  long failed_ = 0;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw Error(ErrorCode::kInputInvalid, arg + " requires a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = next();
      for (const Workload& workload : workloads())
        if (workload.name == name) {
          args.workload = workload;
          have_workload = true;
        }
      if (!have_workload) throw Error(ErrorCode::kInputInvalid, "unknown workload " + name);
    } else if (arg == "--seed") {
      args.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      args.seconds = std::stod(next());
      if (!(args.seconds > 0)) throw Error(ErrorCode::kInputInvalid, "--seconds must be > 0");
    } else if (arg == "--trace") {
      args.trace = next() != "0";
    } else if (arg == "--setup-only") {
      args.setup_only = true;
    } else if (arg == "--commit") {
      args.commit = next();
    } else {
      throw Error(ErrorCode::kInputInvalid, "unknown option " + arg);
    }
  }
  if (!have_workload) throw Error(ErrorCode::kInputInvalid, "--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "corpus_bench: %s\n", e.what());
    return 2;
  }
  try {
    if (!args.setup_only) print_host_stamp(args);
    return Bench(args).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "corpus_bench: %s\n", e.what());
    return 1;
  }
}
