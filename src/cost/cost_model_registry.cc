#include "cost/cost_model_registry.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "cost/standard_costs.h"
#include "graph/graph_io.h"
#include "hypergraph/edge_cover.h"
#include "hypergraph/hypergraph_io.h"
#include "workloads/inference_models.h"
#include "workloads/tpch_queries.h"

namespace mintri {

namespace {

bool ParseQueryNumber(const std::string& value, int* q) {
  std::istringstream is(value);
  return (is >> *q) && is.eof() && *q >= 1 && *q <= 22;
}

std::optional<CostModelInstance> Fail(std::string* error,
                                      const std::string& message) {
  if (error != nullptr) *error = message;
  return std::nullopt;
}

CostModelInstance FromHypergraph(std::string name, Hypergraph h) {
  CostModelInstance instance;
  instance.name = std::move(name);
  instance.graph = h.PrimalGraph();
  instance.hypergraph = std::move(h);
  return instance;
}

CostModelInstance FromModel(std::string name, GraphicalModel m) {
  CostModelInstance instance;
  instance.name = std::move(name);
  instance.graph = m.MarkovGraph();
  instance.model = std::move(m);
  return instance;
}

}  // namespace

std::optional<CostModelInstance> ReadInstance(std::istream& in,
                                              InstanceKind kind,
                                              const std::string& name,
                                              std::string* error) {
  // A reader explains a failure when a size field caused it.
  std::string why;
  auto malformed = [&](const std::string& what) {
    return Fail(error, name + ": malformed " + what +
                           (why.empty() ? "" : ": " + why));
  };
  switch (kind) {
    case InstanceKind::kGraph: {
      std::optional<Graph> g = ParseDimacs(in, &why);
      if (!g.has_value()) return malformed("DIMACS/PACE .gr input");
      CostModelInstance instance;
      instance.name = name;
      instance.graph = std::move(*g);
      return instance;
    }
    case InstanceKind::kHypergraph: {
      std::optional<Hypergraph> h = ParseHypergraph(in, &why);
      if (!h.has_value()) return malformed(".hg hypergraph input");
      return FromHypergraph(name, std::move(*h));
    }
    case InstanceKind::kModel: {
      std::optional<GraphicalModel> m = ParseUaiModel(in, &why);
      if (!m.has_value()) return malformed("UAI factor-list input");
      return FromModel(name, std::move(*m));
    }
  }
  return Fail(error, name + ": unknown instance kind");
}

std::optional<CostModelInstance> LoadInstance(const std::string& spec,
                                              std::string* error) {
  if (spec.rfind("tpch:", 0) == 0) {
    int q = 0;
    if (!ParseQueryNumber(spec.substr(5), &q)) {
      return Fail(error, spec + ": expected tpch:<q> with q in 1..22");
    }
    workloads::TpchQuery query = workloads::TpchQueryGraph(q);
    return FromHypergraph(spec, workloads::TpchQueryHypergraph(query));
  }
  if (spec.rfind("tpch-graph:", 0) == 0) {
    int q = 0;
    if (!ParseQueryNumber(spec.substr(11), &q)) {
      return Fail(error, spec + ": expected tpch-graph:<q> with q in 1..22");
    }
    CostModelInstance instance;
    instance.name = spec;
    instance.graph = workloads::TpchQueryGraph(q).graph;
    return instance;
  }
  if (spec.rfind("gm:", 0) == 0) {
    std::optional<GraphicalModel> m =
        workloads::InferenceModelByName(spec.substr(3));
    if (!m.has_value()) {
      return Fail(error, spec + ": unknown builtin graphical model");
    }
    return FromModel(spec, std::move(*m));
  }

  const size_t dot = spec.find_last_of('.');
  const std::string ext = dot == std::string::npos ? "" : spec.substr(dot + 1);
  InstanceKind kind = InstanceKind::kGraph;  // any other path: DIMACS .gr
  if (ext == "hg") {
    kind = InstanceKind::kHypergraph;
  } else if (ext == "uai") {
    kind = InstanceKind::kModel;
  }
  std::ifstream file(spec);
  if (!file) return Fail(error, spec + ": cannot open");
  return ReadInstance(file, kind, spec, error);
}

const std::vector<std::string>& KnownCostNames() {
  static const std::vector<std::string> kNames = {
      "width", "fill", "width-then-fill", "state-space", "hypertree", "fhw"};
  return kNames;
}

std::optional<CostModel> MakeCostModel(const std::string& cost_name,
                                       const CostModelInstance& instance,
                                       bool enable_cache,
                                       std::string* error) {
  auto fail = [error](const std::string& message) -> std::optional<CostModel> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  CostModel out;
  if (cost_name == "width") {
    out.cost = std::make_unique<WidthCost>();
    out.composition = CostComposition::kMax;
    return out;
  }
  if (cost_name == "fill") {
    out.cost = std::make_unique<FillInCost>();
    out.composition = CostComposition::kSum;
    return out;
  }
  if (cost_name == "width-then-fill") {
    out.cost = std::make_unique<WidthThenFillCost>();
    out.composition = CostComposition::kMax;
    return out;
  }
  if (cost_name == "state-space") {
    out.cost = instance.model.has_value()
                   ? std::make_unique<TotalStateSpaceCost>(
                         instance.model->DomainsAsWeights())
                   : TotalStateSpaceCost::Uniform(instance.graph.NumVertices(),
                                                  2.0);
    out.composition = CostComposition::kSum;
    return out;
  }
  if (cost_name == "hypertree" || cost_name == "fhw") {
    if (!instance.hypergraph.has_value()) {
      return fail("cost " + cost_name +
                  " requires a hypergraph instance (.hg or tpch:<q>)");
    }
    const Hypergraph& h = *instance.hypergraph;
    const bool fractional = cost_name == "fhw";
    BagScoreCache::Score score = [&h, fractional](const VertexSet& bag) {
      return fractional ? FractionalEdgeCoverBagScore(h, bag)
                        : HypertreeBagScore(h, bag);
    };
    const std::string display_name = fractional
                                         ? "fractional-hypertree-width"
                                         : "hypertree-width";
    if (enable_cache) {
      out.cache = std::make_shared<BagScoreCache>(std::move(score));
      std::shared_ptr<BagScoreCache> cache = out.cache;
      out.cost = std::make_unique<WeightedWidthCost>(
          [cache](const VertexSet& bag) { return (*cache)(bag); },
          display_name);
    } else {
      out.cost = std::make_unique<WeightedWidthCost>(std::move(score),
                                                     display_name);
    }
    out.composition = CostComposition::kMax;
    return out;
  }
  std::string known;
  for (const std::string& name : KnownCostNames()) {
    known += (known.empty() ? "" : "|") + name;
  }
  return fail("unknown cost: " + cost_name + " (expected " + known + ")");
}

}  // namespace mintri
