#include "graph/graph_io.h"

#include <sstream>

namespace mintri {

bool WithinInputVertexLimit(long long n, std::string* error) {
  if (n <= kMaxInputVertices) return true;
  if (error != nullptr) {
    *error = "declares " + std::to_string(n) +
             " vertices, above the input limit of " +
             std::to_string(kMaxInputVertices);
  }
  return false;
}

std::optional<Graph> ParseDimacs(std::istream& in, std::string* error) {
  std::string line;
  std::optional<Graph> g;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    if (line[0] == 'p') {
      std::string p, format;
      long long n = 0;
      int m = 0;
      if (!(ls >> p >> format >> n >> m) || n < 0 ||
          !WithinInputVertexLimit(n, error)) {
        return std::nullopt;
      }
      g.emplace(static_cast<int>(n));
      continue;
    }
    if (!g.has_value()) return std::nullopt;
    int u = 0, v = 0;
    if (!(ls >> u >> v)) return std::nullopt;
    if (u < 1 || v < 1 || u > g->NumVertices() || v > g->NumVertices()) {
      return std::nullopt;
    }
    g->AddEdge(u - 1, v - 1);
  }
  return g;
}

std::optional<Graph> ParseDimacsString(const std::string& text) {
  std::istringstream in(text);
  return ParseDimacs(in);
}

void WriteDimacs(const Graph& g, std::ostream& out) {
  out << "p tw " << g.NumVertices() << " " << g.NumEdges() << "\n";
  for (const auto& [u, v] : g.Edges()) {
    out << (u + 1) << " " << (v + 1) << "\n";
  }
}

}  // namespace mintri
