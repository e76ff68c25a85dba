#ifndef MINTRI_PREPROCESS_PREPROCESS_H_
#define MINTRI_PREPROCESS_PREPROCESS_H_

#include <algorithm>
#include <vector>

#include "graph/graph.h"
#include "util/timer.h"

namespace mintri {

/// One vertex removed by Tier 0, with the clique bag that lifts results
/// back: `bag` is N[v] at elimination time (original labels), which is a
/// maximal clique of every minimal triangulation of the pre-elimination
/// graph.
struct EliminatedVertex {
  int vertex = -1;
  VertexSet bag;
};

/// Summary counters for reporting (RunStats::preprocess).
struct PreprocessInfo {
  int vertices_removed = 0;
  int num_atoms = 0;
  int largest_atom = 0;
  int smallest_atom = 0;  // 0: no atom seen
  double seconds = 0;

  /// Adds another run's summary in (one per component): counts and seconds
  /// sum, largest_atom keeps the maximum and smallest_atom the least
  /// non-zero value.
  void Accumulate(const PreprocessInfo& other) {
    vertices_removed += other.vertices_removed;
    num_atoms += other.num_atoms;
    seconds += other.seconds;
    largest_atom = std::max(largest_atom, other.largest_atom);
    if (other.smallest_atom > 0 &&
        (smallest_atom == 0 || other.smallest_atom < smallest_atom)) {
      smallest_atom = other.smallest_atom;
    }
  }
};

struct PreprocessResult {
  /// Vertices still in play after the reductions.
  VertexSet kept;
  /// The working graph on g's vertex universe. The reductions add no edges,
  /// so this is g itself; the reduced graph is reduced[kept]. Read it only
  /// through subsets of `kept`.
  Graph reduced;
  /// Eliminated vertices in elimination order, with their lift bags.
  std::vector<EliminatedVertex> eliminated;
  /// Clique-minimal-separator atoms of reduced[kept] (original labels,
  /// sorted). Adjacent atoms overlap in their clique separator; their union
  /// is `kept`. Empty iff `kept` is empty (the graph fully reduced).
  std::vector<VertexSet> atoms;
  PreprocessInfo info;
};

/// Runs the Tier-0 reductions on g (any graph; components are decomposed
/// independently). Both are *stream-safe*: they preserve the set of minimal
/// triangulations up to the recorded lift, so the tiered enumerator can
/// replay the full ranked stream of g from the reduced graph.
///  - Simplicial elimination, repeated to a fixed point: v lies in the
///    unique maximal clique N[v] of every minimal triangulation and adds no
///    fill, so MT(G) is in bijection with MT(G - v).
///  - Clique-minimal-separator atoms (Tarjan / Leimer) of what is left:
///    MT(G) is the independent product of MT(G[atom]) over the atoms, glued
///    on the clique separators.
/// Deterministic: single-threaded, fixed scan orders. Polls `deadline`
/// once per elimination sweep and once per clique-separator candidate it
/// tries; once it has expired the result is incomplete and callers must
/// discard it.
PreprocessResult Preprocess(const Graph& g,
                            const Deadline* deadline = nullptr);

/// The clique-minimal-separator atoms of g (Leimer's unique decomposition),
/// computed from the clique-tree adhesions of a minimal triangulation that
/// are cliques in g (Berry–Pogorelcnik–Simonet: those are exactly the clique
/// minimal separators of g). Exposed for tests; Preprocess calls this on the
/// reduced graph.
std::vector<VertexSet> CliqueMinimalSeparatorAtoms(const Graph& g);

}  // namespace mintri

#endif  // MINTRI_PREPROCESS_PREPROCESS_H_
