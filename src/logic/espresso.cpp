#include "logic/espresso.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "logic/bitslice.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace nshot::logic {
namespace {

/// Cap on how many uncovered cubes are scanned when scoring an EXPAND
/// direction; keeps the heuristic near-linear on very large state graphs.
constexpr std::size_t kGainScanCap = 2048;

/// One (minterm, output) pair of the on-set.
struct OnPair {
  std::uint64_t code;
  int output;
};

std::vector<OnPair> collect_on_pairs(const TwoLevelSpec& spec) {
  std::vector<OnPair> pairs;
  for (int o = 0; o < spec.num_outputs(); ++o)
    for (const std::uint64_t code : spec.on(o)) pairs.push_back({code, o});
  return pairs;
}

/// Initial cover.  With sharing, one cube per distinct on-minterm feeding
/// every output for which that minterm is on; without sharing, one cube
/// per (minterm, output) pair so each function is minimized independently
/// (expansion never raises output parts in that mode).
Cover initial_cover(const TwoLevelSpec& spec, bool share_outputs) {
  Cover cover(spec.num_inputs(), spec.num_outputs());
  if (!share_outputs) {
    for (int o = 0; o < spec.num_outputs(); ++o)
      for (const std::uint64_t code : spec.on(o))
        cover.add(Cube::minterm(code, spec.num_inputs(), 1ULL << o));
    return cover;
  }
  std::vector<std::uint64_t> codes;
  for (int o = 0; o < spec.num_outputs(); ++o)
    codes.insert(codes.end(), spec.on(o).begin(), spec.on(o).end());
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());

  for (const std::uint64_t code : codes) {
    std::uint64_t outs = 0;
    for (int o = 0; o < spec.num_outputs(); ++o) {
      if (std::binary_search(spec.on(o).begin(), spec.on(o).end(), code)) outs |= (1ULL << o);
    }
    if (outs != 0) cover.add(Cube::minterm(code, spec.num_inputs(), outs));
  }
  return cover;
}

}  // namespace

CoverCost cost_of(const Cover& cover) {
  return CoverCost{cover.size(), cover.literal_count()};
}

namespace {

/// One off-set plane set per output: !off[o].intersects(cube) is
/// spec.cube_valid_for_output(cube, o), in O(bound literals x words) word
/// ops instead of one probe per off-minterm.  Built once per espresso()
/// call and shared by every EXPAND pass.
using OffPlanes = std::vector<CodeBitPlanes>;

OffPlanes build_off_planes(const TwoLevelSpec& spec) {
  OffPlanes planes;
  planes.reserve(static_cast<std::size_t>(spec.num_outputs()));
  for (int o = 0; o < spec.num_outputs(); ++o) planes.emplace_back(spec.off(o), spec.num_inputs());
  return planes;
}

/// spec.cube_is_valid(cube) on the off-set planes.
bool valid_on_planes(const OffPlanes& off, const Cube& cube) {
  for (std::uint64_t outs = cube.outputs(); outs; outs &= outs - 1)
    if (off[static_cast<std::size_t>(std::countr_zero(outs))].intersects(cube)) return false;
  return true;
}

/// Greedy literal raising of `cube`: at each step raise the valid direction
/// that absorbs the most of the first kGainScanCap `pending` cubes, the
/// lowest variable on ties.
///
/// All directions are scored in one pass: `cube` with v raised contains a
/// pending cube c iff c's outputs are a subset of cube's and c's input
/// excess over cube, (c.lo & ~cube.lo) | (c.hi & ~cube.hi), is empty or
/// exactly {v}.  A direction that is invalid stays invalid for the rest of
/// this cube (a larger cube covers every off-minterm a smaller one does),
/// so it is never re-checked; and a direction is only checked when its
/// gain could beat the best valid one so far.  Neither shortcut changes
/// which variable is chosen.
void raise_literals(Cube& cube, const std::vector<Cube>& pending, const OffPlanes& off,
                    int num_inputs) {
  const std::size_t scan = std::min(pending.size(), kGainScanCap);
  const std::uint64_t inputs = Cube::input_mask(num_inputs);
  std::uint64_t invalid = 0;
  std::array<long, 64> gain{};
  for (;;) {
    const std::uint64_t open = inputs & ~(cube.lo() & cube.hi()) & ~invalid;
    if (!open) return;
    long base = 0;
    gain.fill(0);
    for (std::size_t i = 0; i < scan; ++i) {
      const Cube& c = pending[i];
      if (c.outputs() & ~cube.outputs()) continue;
      const std::uint64_t excess = (c.lo() & ~cube.lo()) | (c.hi() & ~cube.hi());
      if (excess == 0)
        ++base;
      else if ((excess & (excess - 1)) == 0)
        ++gain[static_cast<std::size_t>(std::countr_zero(excess))];
    }
    int best_var = -1;
    long best_gain = -1;
    for (std::uint64_t rest = open; rest; rest &= rest - 1) {
      const int v = std::countr_zero(rest);
      const long g = base + gain[static_cast<std::size_t>(v)];
      if (g <= best_gain) continue;
      Cube candidate = cube;
      candidate.raise_var(v);
      if (!valid_on_planes(off, candidate)) {
        invalid |= 1ULL << v;
        continue;
      }
      best_gain = g;
      best_var = v;
    }
    if (best_var < 0) return;
    cube.raise_var(best_var);
  }
}

/// EXPAND on prebuilt off-set planes (see espresso_expand).
void expand_on_planes(Cover& cover, const TwoLevelSpec& spec, const OffPlanes& off,
                      bool share_outputs) {
  const std::size_t n = cover.size();
  obs::count(obs::Counter::kCubesExpanded, static_cast<long>(n));

  // Expand narrow cubes first: they are the least likely to be absorbed.
  // `pending` holds the cubes not yet expanded or absorbed, in that order;
  // its head is the next cube to expand.
  std::vector<Cube> pending(cover.begin(), cover.end());
  std::stable_sort(pending.begin(), pending.end(), [](const Cube& a, const Cube& b) {
    return a.literal_count() > b.literal_count();
  });
  std::vector<Cube> result;
  result.reserve(n);

  while (!pending.empty()) {
    Cube cube = pending.front();
    pending.erase(pending.begin());
    raise_literals(cube, pending, off, spec.num_inputs());

    // Output raising: let this AND gate feed further outputs when valid and
    // useful (covers at least one on-minterm of that output).
    if (share_outputs) {
      for (int o = 0; o < spec.num_outputs(); ++o) {
        if (cube.has_output(o)) continue;
        if (off[static_cast<std::size_t>(o)].intersects(cube)) continue;
        const auto& on = spec.on(o);
        if (std::any_of(on.begin(), on.end(),
                        [&](std::uint64_t code) { return cube.covers_minterm(code); }))
          cube.add_output(o);
      }
    }

    // Absorb pending cubes now contained in the expanded cube.
    std::erase_if(pending, [&](const Cube& c) { return cube.contains(c); });
    result.push_back(cube);
  }

  Cover expanded(spec.num_inputs(), spec.num_outputs());
  for (const Cube& c : result) expanded.add(c);
  expanded.remove_contained();
  cover = std::move(expanded);
}

}  // namespace

void espresso_expand(Cover& cover, const TwoLevelSpec& spec, bool share_outputs) {
  expand_on_planes(cover, spec, build_off_planes(spec), share_outputs);
}

void espresso_irredundant(Cover& cover, const TwoLevelSpec& spec) {
  const std::vector<OnPair> pairs = collect_on_pairs(spec);
  const std::size_t n = cover.size();

  // For every on-pair, the set of cubes that cover it.
  std::vector<std::vector<std::size_t>> coverers(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    for (std::size_t i = 0; i < n; ++i)
      if (cover[i].has_output(pairs[p].output) && cover[i].covers_minterm(pairs[p].code))
        coverers[p].push_back(i);
    NSHOT_ASSERT(!coverers[p].empty(), "cover lost an on-minterm before IRREDUNDANT");
  }

  std::vector<bool> selected(n, false);
  std::vector<bool> pair_done(pairs.size(), false);
  std::size_t remaining = pairs.size();

  auto select = [&](std::size_t cube_index) {
    if (selected[cube_index]) return;
    selected[cube_index] = true;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      if (pair_done[p]) continue;
      for (const std::size_t i : coverers[p]) {
        if (i == cube_index) {
          pair_done[p] = true;
          --remaining;
          break;
        }
      }
    }
  };

  // Relatively essential cubes first.
  for (std::size_t p = 0; p < pairs.size(); ++p)
    if (coverers[p].size() == 1) select(coverers[p][0]);

  // Greedy set cover for the rest.
  while (remaining > 0) {
    std::vector<std::size_t> uncovered_count(n, 0);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      if (pair_done[p]) continue;
      for (const std::size_t i : coverers[p]) ++uncovered_count[i];
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (uncovered_count[i] > uncovered_count[best]) best = i;
    NSHOT_ASSERT(uncovered_count[best] > 0, "greedy IRREDUNDANT cannot make progress");
    select(best);
  }

  Cover pruned(cover.num_inputs(), cover.num_outputs());
  for (std::size_t i = 0; i < n; ++i)
    if (selected[i]) pruned.add(cover[i]);
  cover = std::move(pruned);
}

void espresso_reduce(Cover& cover, const TwoLevelSpec& spec) {
  const std::vector<OnPair> pairs = collect_on_pairs(spec);

  // Process widest cubes first so they shed minterms to the narrow ones.
  std::vector<std::size_t> order(cover.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cover[a].literal_count() < cover[b].literal_count();
  });

  std::vector<bool> dead(cover.size(), false);
  for (const std::size_t i : order) {
    // On-pairs for which cube i is currently the only coverer.
    std::optional<Cube> shrunk;
    std::uint64_t outs = 0;
    for (const OnPair& p : pairs) {
      if (!cover[i].has_output(p.output) || !cover[i].covers_minterm(p.code)) continue;
      bool elsewhere = false;
      for (std::size_t j = 0; j < cover.size() && !elsewhere; ++j)
        elsewhere = j != i && !dead[j] && cover[j].has_output(p.output) &&
                    cover[j].covers_minterm(p.code);
      if (elsewhere) continue;
      const Cube point = Cube::minterm(p.code, cover.num_inputs(), 0);
      shrunk = shrunk ? shrunk->supercube(point) : point;
      outs |= (1ULL << p.output);
    }
    if (!shrunk) {
      dead[i] = true;
    } else {
      shrunk->set_outputs(outs);
      cover[i] = *shrunk;
    }
  }

  Cover reduced(cover.num_inputs(), cover.num_outputs());
  for (std::size_t i = 0; i < cover.size(); ++i)
    if (!dead[i]) reduced.add(cover[i]);
  cover = std::move(reduced);
}

Cover espresso(const TwoLevelSpec& spec, const EspressoOptions& options) {
  const obs::Span span("espresso");
  TwoLevelSpec normalized = spec;
  normalized.normalize();
  normalized.validate();

  Cover cover = initial_cover(normalized, options.share_outputs);
  if (cover.empty()) return cover;

  const OffPlanes off = build_off_planes(normalized);
  expand_on_planes(cover, normalized, off, options.share_outputs);
  espresso_irredundant(cover, normalized);
  Cover best = cover;
  CoverCost best_cost = cost_of(best);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    espresso_reduce(cover, normalized);
    expand_on_planes(cover, normalized, off, options.share_outputs);
    espresso_irredundant(cover, normalized);
    const CoverCost cost = cost_of(cover);
    if (!(cost < best_cost)) break;
    best = cover;
    best_cost = cost;
  }
  best.remove_contained();
  return best;
}

}  // namespace nshot::logic
