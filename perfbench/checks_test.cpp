// checks_test — the corpus benchmark's test of its own output checks.
//
// For every corpus circuit it synthesizes the heuristic cover and asserts
// that (1) the region-rule sets agree with the program's own spec
// derivation, (2) the unmodified cover passes check_cover, (3) every cover
// with one literal flipped or one cube dropped is rejected, and (4) every
// cover with one literal removed is rejected for covering an off-code.
// Exits 0 when all hold, 1 otherwise.
//
//   checks_test [CIRCUIT...]      (default: the whole corpus)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "checks.hpp"
#include "nshot/pipeline.hpp"

namespace {

using namespace nshot;

int g_failures = 0;

void expect(bool condition, const std::string& what) {
  if (condition) return;
  ++g_failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

/// The region-rule sets must be exactly the (F, R) sets derive_spec hands
/// the minimizer: two derivations of Table 1 that share no code.
void check_agrees_with_derive_spec(const std::string& name,
                                   const std::vector<perfbench::OutputSets>& sets,
                                   const logic::TwoLevelSpec& spec) {
  expect(static_cast<int>(sets.size()) == spec.num_outputs(), name + ": output count");
  for (int o = 0; o < spec.num_outputs() && o < static_cast<int>(sets.size()); ++o) {
    const perfbench::OutputSets& set = sets[static_cast<std::size_t>(o)];
    expect(set.on == spec.on(o), name + ": " + set.name + " on-set differs from derive_spec");
    expect(set.off == spec.off(o), name + ": " + set.name + " off-set differs from derive_spec");
  }
}

/// Returns the number of mutants tried.
int check_mutants(const std::string& name, const std::vector<perfbench::OutputSets>& sets,
                  const logic::Cover& cover) {
  int mutants = 0;
  for (std::size_t i = 0; i < cover.size(); ++i) {
    logic::Cover dropped = cover;
    dropped.erase(i);
    ++mutants;
    expect(!perfbench::check_cover(sets, dropped).empty(),
           name + ": dropping cube " + cover[i].to_string() + " was not rejected");
    for (int v = 0; v < cover.num_inputs(); ++v) {
      if (cover[i].var_is_free(v)) continue;
      logic::Cover flipped = cover;
      const bool value = (cover[i].hi() >> v) & 1ULL;
      flipped[i].raise_var(v);
      flipped[i].restrict_var(v, !value);
      ++mutants;
      expect(!perfbench::check_cover(sets, flipped).empty(),
             name + ": flipping literal " + std::to_string(v) + " of cube " +
                 cover[i].to_string() + " was not rejected");
      // The covers are prime, so dropping a literal must reach an off-code.
      logic::Cover widened = cover;
      widened[i].raise_var(v);
      ++mutants;
      expect(perfbench::check_cover(sets, widened).find("off-code") != std::string::npos,
             name + ": dropping literal " + std::to_string(v) + " of cube " +
                 cover[i].to_string() + " was not rejected as covering an off-code");
    }
  }
  return mutants;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) names.emplace_back(argv[i]);
  if (names.empty())
    for (const auto& info : bench_suite::all_benchmarks()) names.push_back(info.name);

  PipelineOptions options;
  options.collect_observability = false;
  Pipeline pipeline(options);
  int mutants = 0;
  for (const std::string& name : names) {
    const auto sets = perfbench::region_rule_sets(bench_suite::build_benchmark(name));
    Request request;
    request.kind = "synthesis";
    request.spec = "bench:" + name;
    const Response response = pipeline.submit(request);
    if (!response.outcome.ok()) {
      expect(false, name + ": synthesis failed: " + response.outcome.message);
      continue;
    }
    const core::SynthesisResult& synthesis = response.outcome.run->synthesis;
    check_agrees_with_derive_spec(name, sets, synthesis.derived.spec);
    const std::string problem = perfbench::check_cover(sets, synthesis.cover);
    expect(problem.empty(), name + ": synthesized cover rejected: " + problem);
    mutants += check_mutants(name, sets, synthesis.cover);
  }
  std::printf("checks_test: %zu circuits, %d mutants, %d failure(s)\n", names.size(), mutants,
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
