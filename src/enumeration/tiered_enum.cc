#include "enumeration/tiered_enum.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

#include "chordal/clique_tree.h"
#include "chordal/lb_triang.h"
#include "util/timer.h"

namespace mintri {

namespace {

// Makes `bag` the root of its tree by reversing its path to the old root.
void Reroot(std::vector<int>* parent, int bag) {
  int prev = -1;
  for (int cur = bag; cur >= 0;) {
    const int next = (*parent)[cur];
    (*parent)[cur] = prev;
    prev = cur;
    cur = next;
  }
}

// Index of the first bag in [begin, end) that contains `set`, or -1.
int BagContaining(const std::vector<VertexSet>& bags, int begin, int end,
                  const VertexSet& set) {
  for (int i = begin; i < end; ++i) {
    if (set.IsSubsetOf(bags[i])) return i;
  }
  return -1;
}

}  // namespace

const char* TierName(SolveTier tier) {
  switch (tier) {
    case SolveTier::kExact:
      return "exact";
    case SolveTier::kAtomExact:
      return "atom-exact";
    default:
      return "heuristic";
  }
}

bool IsTierDecomposableCost(const std::string& cost_name) {
  return cost_name == "width" || cost_name == "fill" ||
         cost_name == "hypertree" || cost_name == "fhw";
}

TieredEnumerator::TieredEnumerator(const Graph& g, const BagCost& cost,
                                   CostComposition composition,
                                   const ContextOptions& options,
                                   const SolverOptions& /*unused*/,
                                   const TierOptions& tier_options)
    : g_(g),
      cost_(cost),
      composition_(composition),
      deadline_(tier_options.deadline) {
  const bool exact = tier_options.mode == TierOptions::Mode::kExact;
  WallTimer budget_timer;
  for (const VertexSet& comp_vertices : g.ConnectedComponents()) {
    if (CutByDeadline()) return;
    std::vector<int> comp_old_of_new(comp_vertices.Count());
    int next = 0;
    comp_vertices.ForEach([&](int v) { comp_old_of_new[next++] = v; });
    Graph sub = g.InducedSubgraph(comp_vertices);

    if (exact || !tier_options.decomposable_cost) {
      if (!AddUnit(sub, std::move(comp_old_of_new), options, tier_options,
                   tier_options.exact_budget_seconds -
                       budget_timer.Seconds())) {
        init_ok_ = false;
        return;
      }
      continue;
    }

    // Tier 0: stream-safe reduction + atom decomposition of this component.
    PreprocessResult pre = Preprocess(sub, deadline_);
    if (CutByDeadline()) return;
    preprocess_info_.vertices_removed += pre.info.vertices_removed;
    preprocess_info_.num_atoms += pre.info.num_atoms;
    preprocess_info_.seconds += pre.info.seconds;
    preprocess_info_.largest_atom =
        std::max(preprocess_info_.largest_atom, pre.info.largest_atom);
    if (pre.info.smallest_atom > 0) {
      preprocess_info_.smallest_atom =
          preprocess_info_.smallest_atom == 0
              ? pre.info.smallest_atom
              : std::min(preprocess_info_.smallest_atom,
                         pre.info.smallest_atom);
    }
    if (pre.info.vertices_removed > 0 || pre.atoms.size() > 1) {
      lifted_ = true;
    }
    for (const EliminatedVertex& ev : pre.eliminated) {
      LiftBag lift{VertexSet(g_.NumVertices()), VertexSet(g_.NumVertices())};
      ev.bag.ForEach([&](int v) { lift.bag.Insert(comp_old_of_new[v]); });
      lift.neighbors = lift.bag;
      lift.neighbors.Erase(comp_old_of_new[ev.vertex]);
      lift_bags_.push_back(std::move(lift));
    }
    const size_t first_atom = units_.size();
    for (const VertexSet& atom : pre.atoms) {
      std::vector<int> atom_old_to_new;
      Graph asub = pre.reduced.InducedSubgraph(atom, &atom_old_to_new);
      std::vector<int> old_of_new(asub.NumVertices());
      atom.ForEach([&](int v) {
        old_of_new[atom_old_to_new[v]] = comp_old_of_new[v];
      });
      if (!AddUnit(asub, std::move(old_of_new), options, tier_options,
                   tier_options.exact_budget_seconds -
                       budget_timer.Seconds())) {
        init_ok_ = false;
        return;
      }
    }
    BuildAtomTree(first_atom, pre.atoms, comp_old_of_new);
  }

  tier_ = SolveTier::kExact;
  for (const Unit& unit : units_) {
    if (unit.tier == SolveTier::kHeuristic) tier_ = SolveTier::kHeuristic;
  }
  if (tier_ != SolveTier::kHeuristic && lifted_) tier_ = SolveTier::kAtomExact;

  if (units_.empty()) {
    // Either the graph is empty (no results, matching the exact path) or
    // Tier 0 fully reduced it — the input is chordal and its unique minimal
    // triangulation is the graph itself: emit exactly one result.
    if (g_.NumVertices() > 0) {
      queue_.push({0, {}});
    }
    return;
  }

  std::vector<size_t> first(units_.size(), 0);
  bool feasible = true;
  for (size_t c = 0; c < units_.size(); ++c) {
    if (!Materialize(static_cast<int>(c), 0)) feasible = false;
  }
  if (truncated_) {
    init_ok_ = false;  // a unit's first solve ran out of time
  } else if (feasible) {
    queue_.push({Compose(first), std::move(first)});
  }
}

bool TieredEnumerator::CutByDeadline() {
  if (!IsExpired(deadline_)) return false;
  init_ok_ = false;
  truncated_ = true;
  return true;
}

bool TieredEnumerator::AddUnit(const Graph& sub, std::vector<int> old_of_new,
                               const ContextOptions& options,
                               const TierOptions& tier_options,
                               double remaining_budget) {
  if (CutByDeadline()) return false;
  Unit unit;
  unit.old_of_new = std::move(old_of_new);
  // The unit subgraph renumbers vertices, so vertex-dependent costs
  // (hypergraph edge covers, per-vertex domains, weighted fill) must be
  // re-anchored to the original labels. Only the whole graph keeps the
  // shared cost unrestricted (a unit this large is the single component of a
  // connected, unreduced, unsplit graph).
  bool identity = sub.NumVertices() == g_.NumVertices();
  if (!identity) {
    unit.restricted_cost = cost_.RestrictTo(unit.old_of_new, g_.NumVertices());
  }

  // Tier 1. Mode::kExact builds with the caller's limits as given and has no
  // Tier 2 to fall back on; auto mode clamps every stage to what is left of
  // the shared exact budget.
  const bool exact = tier_options.mode == TierOptions::Mode::kExact;
  bool built = false;
  if (exact || (tier_options.mode == TierOptions::Mode::kAuto &&
                remaining_budget > 0)) {
    ContextOptions unit_options = options;
    unit_options.deadline = deadline_;
    if (!exact) {
      unit_options.separator_limits.time_limit_seconds =
          std::min(unit_options.separator_limits.time_limit_seconds,
                   remaining_budget);
      unit_options.pmc_limits.time_limit_seconds = std::min(
          unit_options.pmc_limits.time_limit_seconds, remaining_budget);
    }
    ContextBuildInfo unit_info;
    auto ctx = TriangulationContext::Build(sub, unit_options, &unit_info);
    init_info_.Accumulate(unit_info);
    tier1_seconds_ += unit_info.total_seconds;
    // A build the deadline cut is a timeout, not a reason to fall back.
    if (CutByDeadline()) return false;
    if (ctx.has_value()) {
      unit.context = std::make_unique<TriangulationContext>(std::move(*ctx));
      unit.tier = SolveTier::kExact;
      built = true;
    } else if (exact) {
      return false;
    }
  } else if (tier_options.mode == TierOptions::Mode::kAuto) {
    // The shared exact budget ran out before this unit: a truthful
    // ms-terminated tally without burning wall clock on a doomed build.
    ContextBuildInfo skipped;
    skipped.termination = ContextBuildInfo::Termination::kMsTerminated;
    skipped.num_builds = 1;
    skipped.num_ms_terminated = 1;
    init_info_.Accumulate(skipped);
  }

  if (!built) {
    // Tier 2: a restricted family seeded by two LB-Triang minimal
    // triangulations (min-degree + identity order). Parra–Scheffler: the
    // minimal separators / maximal cliques of a minimal triangulation are
    // genuine minimal separators / PMCs of the graph, and each seed's
    // clique tree wires completely within its own family, so the DP stream
    // is never empty and its first result costs at most the cheaper seed.
    Graph h1 = LbTriangMinDegree(sub);
    std::vector<int> order(sub.NumVertices());
    std::iota(order.begin(), order.end(), 0);
    Graph h2 = LbTriang(sub, order);
    std::vector<VertexSet> minseps = MinimalSeparatorsOfChordal(h1);
    std::vector<VertexSet> more_seps = MinimalSeparatorsOfChordal(h2);
    minseps.insert(minseps.end(),
                   std::make_move_iterator(more_seps.begin()),
                   std::make_move_iterator(more_seps.end()));
    std::vector<VertexSet> pmcs = MaximalCliquesOfChordal(h1);
    std::vector<VertexSet> more_pmcs = MaximalCliquesOfChordal(h2);
    pmcs.insert(pmcs.end(), std::make_move_iterator(more_pmcs.begin()),
                std::make_move_iterator(more_pmcs.end()));
    if (options.width_bound >= 0) {
      // Honor a width bound in the fallback too: keep only family members
      // within the bound; a PMC that then loses a block is dropped by the
      // partial wiring, so an infeasible bound yields an empty stream,
      // never an over-bound result.
      minseps.erase(std::remove_if(minseps.begin(), minseps.end(),
                                   [&](const VertexSet& s) {
                                     return s.Count() > options.width_bound;
                                   }),
                    minseps.end());
      pmcs.erase(std::remove_if(pmcs.begin(), pmcs.end(),
                                [&](const VertexSet& p) {
                                  return p.Count() > options.width_bound + 1;
                                }),
                 pmcs.end());
    }
    ContextBuildInfo family_info;
    std::optional<TriangulationContext> family =
        TriangulationContext::BuildFromFamily(
            sub, std::move(minseps), std::move(pmcs), &family_info, deadline_);
    init_info_.Accumulate(family_info);
    tier2_seconds_ += family_info.total_seconds;
    if (CutByDeadline()) return false;
    assert(family.has_value());
    unit.context = std::make_unique<TriangulationContext>(std::move(*family));
    unit.tier = SolveTier::kHeuristic;
  }

  unit.enumerator = std::make_unique<RankedTriangulationEnumerator>(
      *unit.context,
      unit.restricted_cost != nullptr ? *unit.restricted_cost : cost_,
      deadline_);
  units_.push_back(std::move(unit));
  return true;
}

void TieredEnumerator::BuildAtomTree(size_t first,
                                     const std::vector<VertexSet>& atoms,
                                     const std::vector<int>& comp_old_of_new) {
  // Saturating every atom gives a chordal graph whose maximal cliques are
  // exactly the atoms, so a maximum-weight spanning tree of the atom
  // intersection graph (Prim, ties to the lowest index) is a clique tree of
  // it. Each tree edge's intersection lies inside a clique minimal
  // separator, hence is a clique of g that every atom triangulation holds
  // in some bag: the gluing points of Assemble.
  const size_t a = atoms.size();
  std::vector<bool> in_tree(a, false);
  std::vector<int> weight(a, 0);
  std::vector<size_t> from(a, 0);
  for (size_t step = 0; step < a; ++step) {
    size_t next = a;
    for (size_t j = 0; j < a; ++j) {
      if (!in_tree[j] && (next == a || weight[j] > weight[next])) next = j;
    }
    in_tree[next] = true;
    Unit& unit = units_[first + next];
    // Weight 0 only for the first atom: a component's atoms are connected
    // through non-empty clique separators.
    if (weight[next] > 0) {
      unit.atom_parent = static_cast<int>(first + from[next]);
      unit.glue = VertexSet(g_.NumVertices());
      const VertexSet shared = atoms[next].Intersect(atoms[from[next]]);
      shared.ForEach([&](int v) { unit.glue.Insert(comp_old_of_new[v]); });
    }
    for (size_t j = 0; j < a; ++j) {
      if (in_tree[j]) continue;
      const int w = atoms[next].Intersect(atoms[j]).Count();
      if (w > weight[j]) {
        weight[j] = w;
        from[j] = next;
      }
    }
  }
}

void TieredEnumerator::SetDeadline(const Deadline* deadline) {
  deadline_ = deadline;
  for (Unit& unit : units_) {
    if (unit.enumerator != nullptr) unit.enumerator->SetDeadline(deadline);
  }
}

long long TieredEnumerator::SumOverUnits(
    long long (RankedTriangulationEnumerator::*stat)() const) const {
  long long sum = 0;
  for (const Unit& unit : units_) {
    if (unit.enumerator != nullptr) sum += ((*unit.enumerator).*stat)();
  }
  return sum;
}

long long TieredEnumerator::num_optimizer_calls() const {
  return SumOverUnits(&RankedTriangulationEnumerator::num_optimizer_calls);
}

long long TieredEnumerator::num_candidate_evals() const {
  return SumOverUnits(&RankedTriangulationEnumerator::num_candidate_evals);
}

long long TieredEnumerator::num_combine_calls() const {
  return SumOverUnits(&RankedTriangulationEnumerator::num_combine_calls);
}

long long TieredEnumerator::num_index_updates() const {
  return SumOverUnits(&RankedTriangulationEnumerator::num_index_updates);
}

long long TieredEnumerator::num_range_queries() const {
  return SumOverUnits(&RankedTriangulationEnumerator::num_range_queries);
}

bool TieredEnumerator::Materialize(int unit_id, size_t i) {
  Unit& unit = units_[unit_id];
  while (unit.produced.size() <= i && !unit.exhausted) {
    auto t = unit.enumerator->Next();
    if (!t.has_value()) {
      unit.exhausted = true;
      if (unit.enumerator->truncated()) truncated_ = true;
      break;
    }
    unit.produced.push_back(std::move(*t));
  }
  return unit.produced.size() > i;
}

CostValue TieredEnumerator::Compose(const std::vector<size_t>& indices) const {
  CostValue acc = composition_ == CostComposition::kMax ? -kInfiniteCost : 0;
  for (size_t c = 0; c < indices.size(); ++c) {
    CostValue v = units_[c].produced[indices[c]].cost;
    acc = composition_ == CostComposition::kMax ? std::max(acc, v) : acc + v;
  }
  return acc;
}

Triangulation TieredEnumerator::Assemble(const std::vector<size_t>& indices) {
  // The units' clique trees in g labels, side by side: a forest with one
  // root per unit. g is saturated with these bags and no others (a lift bag
  // N[v] is already a clique of g).
  const int n = g_.NumVertices();
  Triangulation out;
  out.filled = g_;
  std::vector<int> first_bag(units_.size() + 1, 0);
  for (size_t c = 0; c < indices.size(); ++c) {
    const Unit& unit = units_[c];
    const TriangulationTree& part = unit.produced[indices[c]];
    const int bag_offset = static_cast<int>(out.bags.size());
    first_bag[c] = bag_offset;
    for (size_t b = 0; b < part.bags.size(); ++b) {
      VertexSet bag(n);
      part.bags[b].ForEach([&](int v) { bag.Insert(unit.old_of_new[v]); });
      out.filled.SaturateSet(bag);
      out.bags.push_back(std::move(bag));
      out.parent.push_back(part.parent[b] < 0 ? -1
                                              : part.parent[b] + bag_offset);
    }
    if (lifted_) continue;
    for (const VertexSet& s : part.separators) {
      VertexSet sep(n);
      s.ForEach([&](int v) { sep.Insert(unit.old_of_new[v]); });
      out.separators.push_back(std::move(sep));
    }
  }
  first_bag[units_.size()] = static_cast<int>(out.bags.size());

  if (!lifted_) {
    // No Tier-0 rewriting happened: the units are exactly the connected
    // components, and the forest is the clique tree.
    std::sort(out.separators.begin(), out.separators.end());
    out.cost = Compose(indices);
    return out;
  }

  // Tier-0 lifting. Adjacent atoms overlap in a clique separator S, so the
  // union of their fills is chordal and minimal (Leimer), and a clique tree
  // of it hangs each atom's tree, re-rooted at a bag ⊇ S, under a bag ⊇ S of
  // its atom-tree parent. Neither bag is S itself: a maximal clique of a
  // minimal triangulation is a PMC, and were the clique S a PMC of the atom,
  // the neighbourhood of a component of atom − S would be a clique minimal
  // separator of the atom. So the bags stay exactly the maximal cliques.
  std::vector<VertexSet>& bags = out.bags;
  std::vector<int>& parent = out.parent;
  for (size_t c = 0; c < units_.size(); ++c) {
    const int p = units_[c].atom_parent;
    if (p < 0) continue;
    const VertexSet& s = units_[c].glue;
    const int child = BagContaining(bags, first_bag[c], first_bag[c + 1], s);
    const int host = BagContaining(bags, first_bag[p], first_bag[p + 1], s);
    assert(child >= 0 && host >= 0);
    assert(bags[child].Count() > s.Count() && bags[host].Count() > s.Count());
    Reroot(&parent, child);
    parent[child] = host;
  }
  // Re-attach the eliminated vertices in reverse elimination order: N(v) is
  // a clique of the triangulation built so far, so N[v] hangs under a bag
  // ⊇ N(v) — or replaces it when that bag is N(v) itself — and becomes a
  // new root when v was the last vertex of its component.
  for (auto it = lift_bags_.rbegin(); it != lift_bags_.rend(); ++it) {
    if (it->neighbors.Empty()) {
      bags.push_back(it->bag);
      parent.push_back(-1);
      continue;
    }
    // Newest bags first: a simplicial tail hangs off the bag just added.
    int host = static_cast<int>(bags.size()) - 1;
    while (host >= 0 && !it->neighbors.IsSubsetOf(bags[host])) --host;
    assert(host >= 0);
    if (bags[host].Count() == it->neighbors.Count()) {
      bags[host] = it->bag;
    } else {
      bags.push_back(it->bag);
      parent.push_back(host);
    }
  }

  std::vector<VertexSet>& seps = out.separators;
  for (size_t i = 0; i < bags.size(); ++i) {
    if (parent[i] < 0) continue;
    VertexSet adhesion = bags[i].Intersect(bags[parent[i]]);
    if (!adhesion.Empty()) seps.push_back(std::move(adhesion));
  }
  std::sort(seps.begin(), seps.end());
  seps.erase(std::unique(seps.begin(), seps.end()), seps.end());
  // The queue was ordered by the composed per-unit costs (a monotone
  // function of the global cost for every tier-decomposable cost); the
  // emitted cost is evaluated on the final bag set, so it is truthful.
  // Next() drops it if the deadline expired meanwhile: an edge cover may
  // have given up.
  ScopedThreadDeadline scope(deadline_);
  out.cost = cost_.Evaluate(g_, bags);
  return out;
}

std::optional<TieredResult> TieredEnumerator::Next() {
  if (truncated_ || queue_.empty()) return std::nullopt;
  QueueEntry top = queue_.top();
  queue_.pop();

  // Successors: each tuple has one canonical parent, the tuple with its last
  // non-zero coordinate lowered by one, so a tuple bumps only coordinates at
  // or after that one and is pushed exactly once. The parent precedes the
  // child in (cost, indices) order (the unit streams are non-decreasing), so
  // every tuple is queued before its turn and the pop order is the same as
  // with every predecessor bumping it.
  size_t last = top.indices.size();
  while (last > 0 && top.indices[last - 1] == 0) --last;
  for (size_t c = last == 0 ? 0 : last - 1; c < top.indices.size(); ++c) {
    std::vector<size_t> next_indices = top.indices;
    ++next_indices[c];
    if (!Materialize(static_cast<int>(c), next_indices[c])) continue;
    queue_.push({Compose(next_indices), std::move(next_indices)});
  }
  Triangulation result = Assemble(top.indices);
  if (lifted_ && IsExpired(deadline_)) {
    truncated_ = true;
    return std::nullopt;
  }
  return TieredResult{std::move(result), tier_};
}

}  // namespace mintri
