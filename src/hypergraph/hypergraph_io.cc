#include "hypergraph/hypergraph_io.h"

#include <sstream>

#include "graph/graph_io.h"

namespace mintri {

std::optional<Hypergraph> ParseHypergraph(std::istream& in,
                                          std::string* error) {
  std::string line;
  std::optional<Hypergraph> h;
  int expected_edges = 0;
  int seen_edges = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    if (!h.has_value()) {
      std::string p, format;
      long long n = 0;
      int m = 0;
      if (!(ls >> p >> format >> n >> m) || p != "p" || format != "hg" ||
          n < 0 || m < 0 || !WithinInputVertexLimit(n, error)) {
        return std::nullopt;
      }
      h.emplace(static_cast<int>(n));
      expected_edges = m;
      continue;
    }
    VertexSet edge(h->NumVertices());
    int v = 0;
    while (ls >> v) {
      if (v < 1 || v > h->NumVertices() || edge.Contains(v - 1)) {
        return std::nullopt;
      }
      edge.Insert(v - 1);
    }
    if (!ls.eof() || edge.Empty()) return std::nullopt;
    h->AddEdge(std::move(edge));
    ++seen_edges;
  }
  if (!h.has_value() || seen_edges != expected_edges) return std::nullopt;
  return h;
}

std::optional<Hypergraph> ParseHypergraphString(const std::string& text) {
  std::istringstream in(text);
  return ParseHypergraph(in);
}

void WriteHypergraph(const Hypergraph& h, std::ostream& out) {
  out << "p hg " << h.NumVertices() << " " << h.NumEdges() << "\n";
  for (const VertexSet& e : h.Edges()) {
    bool first = true;
    e.ForEach([&](int v) {
      if (!first) out << " ";
      out << (v + 1);
      first = false;
    });
    out << "\n";
  }
}

}  // namespace mintri
