#include "checks.hpp"

#include <algorithm>

namespace perfbench {

namespace {

void sort_unique(std::vector<std::uint64_t>& codes) {
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
}

bool covered(const nshot::logic::Cover& cover, int output, std::uint64_t code) {
  for (const nshot::logic::Cube& cube : cover)
    if (cube.has_output(output) && cube.covers_minterm(code)) return true;
  return false;
}

}  // namespace

std::vector<OutputSets> region_rule_sets(const nshot::sg::StateGraph& graph) {
  std::vector<OutputSets> sets;
  for (int x = 0; x < graph.num_signals(); ++x) {
    if (graph.signal(x).kind == nshot::sg::SignalKind::kInput) continue;
    OutputSets set{graph.signal(x).name + ".set", {}, {}};
    OutputSets reset{graph.signal(x).name + ".reset", {}, {}};
    for (int s = 0; s < graph.num_states(); ++s) {
      const std::uint64_t code = graph.code(s);
      const bool high = (code >> x) & 1ULL;
      bool excited = false;
      for (const nshot::sg::Edge& edge : graph.out_edges(s)) excited |= edge.label.signal == x;
      if (!high && excited) {  // ER(x+)
        set.on.push_back(code);
        reset.off.push_back(code);
      } else if (high && excited) {  // ER(x-)
        reset.on.push_back(code);
        set.off.push_back(code);
      } else if (!high) {  // QR(x-)
        set.off.push_back(code);
      } else {  // QR(x+)
        reset.off.push_back(code);
      }
    }
    for (OutputSets* sets_of : {&set, &reset}) {
      sort_unique(sets_of->on);
      sort_unique(sets_of->off);
    }
    sets.push_back(std::move(set));
    sets.push_back(std::move(reset));
  }
  return sets;
}

std::string check_cover(const std::vector<OutputSets>& sets, const nshot::logic::Cover& cover) {
  if (cover.num_outputs() != static_cast<int>(sets.size()))
    return "cover has " + std::to_string(cover.num_outputs()) + " outputs, expected " +
           std::to_string(sets.size());
  for (int o = 0; o < static_cast<int>(sets.size()); ++o) {
    const OutputSets& set = sets[static_cast<std::size_t>(o)];
    for (const std::uint64_t code : set.on)
      if (!covered(cover, o, code))
        return set.name + ": on-code " + std::to_string(code) + " is not covered";
    for (const std::uint64_t code : set.off)
      if (covered(cover, o, code))
        return set.name + ": off-code " + std::to_string(code) + " is covered";
  }
  return {};
}

}  // namespace perfbench
