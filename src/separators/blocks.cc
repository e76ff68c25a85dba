#include "separators/blocks.h"

#include "graph/vertex_set_table.h"

namespace mintri {

std::vector<Block> BlocksOfSeparator(const Graph& g, const VertexSet& s) {
  std::vector<Block> blocks;
  ComponentScanner scanner;
  // One scan delivers each component together with its neighborhood, so the
  // fullness test needs no extra NeighborhoodOfSet pass.
  scanner.ForEachComponent(g, s, [&](const VertexSet& c, const VertexSet& nb) {
    Block b;
    b.full = (nb == s);
    b.separator = s;
    b.vertices = s.Union(c);
    b.component = c;
    blocks.push_back(std::move(b));
  });
  return blocks;
}

std::vector<Block> AllFullBlocks(const Graph& g,
                                 const std::vector<VertexSet>& separators,
                                 const Deadline* deadline) {
  std::vector<Block> out;
  // A full block is identified by its component (S = N(C)), so dedup on the
  // shared hash-table layout keyed by the components' cached hashes.
  VertexSetTable seen_components;
  for (const VertexSet& s : separators) {
    if (IsExpired(deadline)) break;
    for (Block& b : BlocksOfSeparator(g, s)) {
      if (!b.full) continue;
      if (seen_components.Insert(b.component)) {
        out.push_back(std::move(b));
      }
    }
  }
  return out;
}

Graph Realization(const Graph& g, const Block& block,
                  std::vector<int>* old_to_new) {
  std::vector<int> map;
  Graph r = g.InducedSubgraph(block.vertices, &map);
  // Saturate the (relabeled) separator.
  VertexSet s_new(r.NumVertices());
  block.separator.ForEach([&](int v) { s_new.Insert(map[v]); });
  r.SaturateSet(s_new);
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return r;
}

}  // namespace mintri
