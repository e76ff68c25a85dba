#ifndef MINTRI_SEPARATORS_BLOCKS_H_
#define MINTRI_SEPARATORS_BLOCKS_H_

#include <vector>

#include "graph/graph.h"
#include "util/timer.h"

namespace mintri {

/// A block (S, C) of a graph: S is a minimal separator and C an S-component
/// (Section 5.1 of the paper). The block is *full* when every vertex of S
/// has a neighbor in C, i.e., N(C) = S.
struct Block {
  VertexSet separator;  // S
  VertexSet component;  // C
  VertexSet vertices;   // S ∪ C (the paper identifies the block with this)
  bool full = false;
};

/// All blocks (s, C) for the S-components C of G \ s.
std::vector<Block> BlocksOfSeparator(const Graph& g, const VertexSet& s);

/// All *full* blocks over a collection of minimal separators, deduplicated.
/// Note that a full block is uniquely identified by its component C, since
/// S = N(C). Polls `deadline` once per separator and stops early (the list
/// is then incomplete) once it has expired.
std::vector<Block> AllFullBlocks(const Graph& g,
                                 const std::vector<VertexSet>& separators,
                                 const Deadline* deadline = nullptr);

/// The realization R(S, C) = G[S ∪ C] ∪ K_S, relabeled to 0..|S∪C|-1 in
/// increasing original-vertex order. If old_to_new is non-null it receives
/// the relabeling (-1 for vertices outside the block).
Graph Realization(const Graph& g, const Block& block,
                  std::vector<int>* old_to_new = nullptr);

}  // namespace mintri

#endif  // MINTRI_SEPARATORS_BLOCKS_H_
