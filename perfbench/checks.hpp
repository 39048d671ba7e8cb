// Output checks of the corpus benchmark, written apart from the minimizer
// and the spec derivation they check.
//
// The region-rule check rebuilds each non-input signal's Set and Reset
// functions straight from the state graph (the paper's Table 1):
//
//   Set x:   on = ER(x+)            off = ER(x-) ∪ QR(x-)
//   Reset x: on = ER(x-)            off = ER(x+) ∪ QR(x+)
//
// where ER(x+) holds the states with x = 0 and x excited, QR(x-) those with
// x = 0 and x stable, and symmetrically for x = 1.  The k-th non-input
// signal's Set function is cover output 2k and its Reset function output
// 2k+1; cover input variable i is signal i.  A cover passes when every
// on-code is covered and no off-code is.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "logic/cover.hpp"
#include "sg/state_graph.hpp"

namespace perfbench {

/// On- and off-codes of one cover output, sorted and deduplicated.
struct OutputSets {
  std::string name;  // "x.set" / "x.reset"
  std::vector<std::uint64_t> on;
  std::vector<std::uint64_t> off;
};

/// The Set/Reset on- and off-sets of every non-input signal, in cover
/// output order.
std::vector<OutputSets> region_rule_sets(const nshot::sg::StateGraph& graph);

/// Empty when `cover` implements `sets`; otherwise the first violation.
std::string check_cover(const std::vector<OutputSets>& sets, const nshot::logic::Cover& cover);

}  // namespace perfbench
