#include "cost/standard_costs.h"

#include <algorithm>
#include <cmath>

namespace mintri {

namespace {

CostValue MaxChild(const std::vector<CostValue>& child_costs) {
  CostValue m = -kInfiniteCost;
  for (CostValue c : child_costs) m = std::max(m, c);
  return m;
}

CostValue SumChildren(const std::vector<CostValue>& child_costs) {
  CostValue s = 0;
  for (CostValue c : child_costs) s += c;
  return s;
}

}  // namespace

CostValue WidthCost::Combine(const CombineContext& ctx) const {
  return std::max<CostValue>(MaxChild(ctx.child_costs), ctx.omega.Count() - 1);
}

CostValue WidthCost::Evaluate(const Graph& g,
                              const std::vector<VertexSet>& bags) const {
  (void)g;
  CostValue w = 0;
  for (const VertexSet& b : bags) w = std::max<CostValue>(w, b.Count() - 1);
  return w;
}

CostValue FillInCost::Combine(const CombineContext& ctx) const {
  return SumChildren(ctx.child_costs) +
         static_cast<CostValue>(
             NewFillPairs(ctx.graph, ctx.omega, ctx.parent_separator));
}

CostValue FillInCost::Evaluate(const Graph& g,
                               const std::vector<VertexSet>& bags) const {
  Graph h = g;
  for (const VertexSet& b : bags) h.SaturateSet(b);
  return static_cast<CostValue>(h.NumEdges() - g.NumEdges());
}

double WidthThenFillCost::Multiplier(const Graph& g) {
  double n = g.NumVertices();
  return n * n;  // strictly larger than any possible fill-in
}

std::pair<int, long long> WidthThenFillCost::Decode(const Graph& g,
                                                    CostValue v) {
  double m = Multiplier(g);
  long long width = static_cast<long long>(v / m);
  long long fill = static_cast<long long>(v - width * m + 0.5);
  return {static_cast<int>(width), fill};
}

CostValue WidthThenFillCost::Combine(const CombineContext& ctx) const {
  const double m = Multiplier(ctx.graph);
  double width = ctx.omega.Count() - 1;
  double fill = static_cast<double>(
      NewFillPairs(ctx.graph, ctx.omega, ctx.parent_separator));
  for (CostValue c : ctx.child_costs) {
    double child_width = std::floor(c / m);
    width = std::max(width, child_width);
    fill += c - child_width * m;
  }
  return width * m + fill;
}

CostValue WidthThenFillCost::Evaluate(const Graph& g,
                                      const std::vector<VertexSet>& bags)
    const {
  return WidthCost().Evaluate(g, bags) * Multiplier(g) +
         FillInCost().Evaluate(g, bags);
}

std::unique_ptr<WeightedWidthCost> WeightedWidthCost::FromVertexWeights(
    std::vector<double> weights) {
  auto w = std::make_shared<std::vector<double>>(std::move(weights));
  return std::make_unique<WeightedWidthCost>(
      [w](const VertexSet& bag) {
        double s = 0;
        bag.ForEach([&](int v) { s += (*w)[v]; });
        return s;
      },
      "weighted-width");
}

CostValue WeightedWidthCost::Combine(const CombineContext& ctx) const {
  return std::max<CostValue>(MaxChild(ctx.child_costs), score_(ctx.omega));
}

std::unique_ptr<BagCost> WeightedWidthCost::RestrictTo(
    const std::vector<int>& old_of_new, int old_capacity) const {
  return std::make_unique<WeightedWidthCost>(
      [score = score_, old_of_new, old_capacity](const VertexSet& bag) {
        return score(bag.Relabeled(old_of_new, old_capacity));
      },
      name_);
}

CostValue WeightedWidthCost::Evaluate(const Graph& g,
                                      const std::vector<VertexSet>& bags)
    const {
  (void)g;
  CostValue m = -kInfiniteCost;
  for (const VertexSet& b : bags) m = std::max<CostValue>(m, score_(b));
  return m;
}

double WeightedFillCost::SumNewPairs(const Graph& g, const VertexSet& omega,
                                     const VertexSet& parent_separator) const {
  std::vector<int> members = omega.ToVector();
  double s = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = i + 1; j < members.size(); ++j) {
      int x = members[i], y = members[j];
      if (g.HasEdge(x, y)) continue;
      if (parent_separator.Contains(x) && parent_separator.Contains(y)) {
        continue;
      }
      s += weight_(x, y);
    }
  }
  return s;
}

CostValue WeightedFillCost::Combine(const CombineContext& ctx) const {
  CostValue s = 0;
  for (CostValue c : ctx.child_costs) s += c;
  return s + SumNewPairs(ctx.graph, ctx.omega, ctx.parent_separator);
}

CostValue WeightedFillCost::Evaluate(const Graph& g,
                                     const std::vector<VertexSet>& bags)
    const {
  Graph h = g;
  for (const VertexSet& b : bags) h.SaturateSet(b);
  double s = 0;
  for (const auto& [u, v] : h.Edges()) {
    if (!g.HasEdge(u, v)) s += weight_(u, v);
  }
  return s;
}

std::unique_ptr<BagCost> WeightedFillCost::RestrictTo(
    const std::vector<int>& old_of_new, int old_capacity) const {
  (void)old_capacity;
  return std::make_unique<WeightedFillCost>(
      [weight = weight_, old_of_new](int u, int v) {
        return weight(old_of_new[u], old_of_new[v]);
      },
      name_);
}

std::unique_ptr<TotalStateSpaceCost> TotalStateSpaceCost::Uniform(int n,
                                                                  double d) {
  return std::make_unique<TotalStateSpaceCost>(std::vector<double>(n, d));
}

double TotalStateSpaceCost::BagWeight(const VertexSet& bag) const {
  double p = 1;
  bag.ForEach([&](int v) { p *= domains_[v]; });
  return p;
}

CostValue TotalStateSpaceCost::Combine(const CombineContext& ctx) const {
  CostValue s = BagWeight(ctx.omega);
  for (CostValue c : ctx.child_costs) s += c;
  return s;
}

CostValue TotalStateSpaceCost::Evaluate(const Graph& g,
                                        const std::vector<VertexSet>& bags)
    const {
  (void)g;
  CostValue s = 0;
  for (const VertexSet& b : bags) s += BagWeight(b);
  return s;
}

std::unique_ptr<BagCost> TotalStateSpaceCost::RestrictTo(
    const std::vector<int>& old_of_new, int old_capacity) const {
  (void)old_capacity;
  std::vector<double> restricted(old_of_new.size());
  for (size_t i = 0; i < old_of_new.size(); ++i) {
    restricted[i] = domains_[old_of_new[i]];
  }
  return std::make_unique<TotalStateSpaceCost>(std::move(restricted));
}

}  // namespace mintri
