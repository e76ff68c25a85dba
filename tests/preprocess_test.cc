#include "preprocess/preprocess.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "chordal/minimality.h"
#include "cost/standard_costs.h"
#include "separators/minimal_separators.h"
#include "test_util.h"
#include "util/rng.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

using testutil::MakeGraph;

TEST(PreprocessTest, ChordalGraphFullyReduces) {
  // A tree is chordal: simplicial elimination consumes every vertex and no
  // atom remains.
  Graph g = workloads::RandomTree(12, 3);
  PreprocessResult r = Preprocess(g);
  EXPECT_EQ(r.info.vertices_removed, 12);
  EXPECT_TRUE(r.kept.Empty());
  EXPECT_TRUE(r.atoms.empty());
  EXPECT_EQ(r.eliminated.size(), 12u);
  // Re-saturating the recorded bags rebuilds a triangulation of g — for a
  // chordal graph, g itself (no fill).
  Graph filled = g;
  for (const EliminatedVertex& ev : r.eliminated) filled.SaturateSet(ev.bag);
  EXPECT_EQ(filled.NumEdges(), g.NumEdges());
}

TEST(PreprocessTest, EliminationBagsAreCliquesAtEliminationTime) {
  Graph g = testutil::PaperExampleGraph();
  PreprocessResult r = Preprocess(g);
  EXPECT_GE(r.info.vertices_removed, 1);
  // Replaying the eliminations in order: each bag must be a clique once all
  // earlier fills (none for plain simplicial reduction) are applied.
  Graph replay = g;
  for (const EliminatedVertex& ev : r.eliminated) {
    EXPECT_TRUE(replay.IsClique(ev.bag)) << "vertex " << ev.vertex;
    replay.SaturateSet(ev.bag);
  }
}

TEST(PreprocessTest, CycleDoesNotReduceOrSplit) {
  // C4: no simplicial vertex, no clique separator — one atom, the graph.
  Graph g = workloads::Cycle(4);
  PreprocessResult r = Preprocess(g);
  EXPECT_EQ(r.info.vertices_removed, 0);
  ASSERT_EQ(r.atoms.size(), 1u);
  EXPECT_EQ(r.atoms[0].Count(), 4);
}

TEST(PreprocessTest, CutVertexSplitsIntoAtoms) {
  // Bowtie: triangles {0,1,2} and {2,3,4} share the cut vertex 2 — a
  // clique minimal separator of size 1. (Preprocess would eliminate the
  // chordal bowtie outright, so this looks at the decomposition alone.)
  Graph g = MakeGraph(5, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}});
  std::vector<VertexSet> atoms = CliqueMinimalSeparatorAtoms(g);
  ASSERT_EQ(atoms.size(), 2u);
  EXPECT_EQ(atoms[0].Count(), 3);
  EXPECT_EQ(atoms[1].Count(), 3);
  EXPECT_TRUE(atoms[0].Intersect(atoms[1]).Count() == 1);
}

TEST(PreprocessTest, CliqueEdgeSeparatorSplits) {
  // Two C4s sharing the saturated pair {0, 1}: {0,1} is a clique minimal
  // separator, so the decomposition yields two 4-vertex atoms overlapping
  // exactly in the shared edge.
  Graph g = MakeGraph(6, {{0, 1}, {0, 2}, {2, 3}, {3, 1},   // left cycle
                          {0, 4}, {4, 5}, {5, 1}});          // right cycle
  std::vector<VertexSet> atoms = CliqueMinimalSeparatorAtoms(g);
  ASSERT_EQ(atoms.size(), 2u);
  for (const VertexSet& a : atoms) EXPECT_EQ(a.Count(), 4);
  VertexSet overlap = atoms[0].Intersect(atoms[1]);
  EXPECT_EQ(overlap.Count(), 2);
  EXPECT_TRUE(g.IsClique(overlap));
}

TEST(PreprocessTest, AtomsAreAtomsOnRandomGraphs) {
  // On a small random corpus: the atoms cover every edge, pairwise overlap
  // in cliques of g, and — the fixed point — have no clique minimal
  // separators of their own.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(11, 0.3, seed);
    std::vector<VertexSet> atoms = CliqueMinimalSeparatorAtoms(g);
    ASSERT_FALSE(atoms.empty()) << "seed=" << seed;
    for (const auto& [u, v] : g.Edges()) {
      bool covered = false;
      for (const VertexSet& a : atoms) {
        if (a.Contains(u) && a.Contains(v)) covered = true;
      }
      EXPECT_TRUE(covered) << "edge " << u << "-" << v << " seed=" << seed;
    }
    for (size_t i = 0; i < atoms.size(); ++i) {
      for (size_t j = i + 1; j < atoms.size(); ++j) {
        EXPECT_TRUE(g.IsClique(atoms[i].Intersect(atoms[j])))
            << "seed=" << seed;
      }
      Graph sub = g.InducedSubgraph(atoms[i]);
      EXPECT_EQ(CliqueMinimalSeparatorAtoms(sub).size(), 1u)
          << "atom " << i << " of seed " << seed << " is not atomic";
    }
  }
}

// Leimer's atoms of the connected g[piece] by brute force: split along any
// clique minimal separator S into the pieces C ∪ N(C), one per component C
// of the piece minus S, until no piece has one.
void SplitAtBruteForceSeparators(const Graph& g, const VertexSet& piece,
                                 std::vector<VertexSet>* out) {
  const Graph sub = g.InducedSubgraph(piece);
  const std::vector<int> new_to_old = piece.ToVector();
  for (const VertexSet& s : MinimalSeparatorsBruteForce(sub)) {
    if (!sub.IsClique(s)) continue;
    for (const VertexSet& c : sub.ComponentsAfterRemoving(s)) {
      const VertexSet side = c.Union(sub.NeighborhoodOfSet(c));
      SplitAtBruteForceSeparators(
          g, side.Relabeled(new_to_old, g.NumVertices()), out);
    }
    return;
  }
  out->push_back(piece);
}

// The atoms of g[part], sorted: the maximal pieces of the brute-force split
// of each component.
std::vector<VertexSet> OracleAtoms(const Graph& g, const VertexSet& part) {
  std::vector<VertexSet> pieces;
  for (const VertexSet& comp : g.ComponentsAfterRemoving(part.Complement())) {
    SplitAtBruteForceSeparators(g, comp, &pieces);
  }
  std::sort(pieces.begin(), pieces.end());
  pieces.erase(std::unique(pieces.begin(), pieces.end()), pieces.end());
  std::vector<VertexSet> atoms;
  for (const VertexSet& p : pieces) {
    bool maximal = true;
    for (const VertexSet& q : pieces) {
      if (p != q && p.IsSubsetOf(q)) maximal = false;
    }
    if (maximal) atoms.push_back(p);
  }
  return atoms;
}

// Chordless 4- and 5-cycles, each glued onto a vertex or an edge of the
// graph so far, with a few random chords: graphs with many atoms and few
// simplicial vertices.
Graph GluedCycles(int max_n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, int>> edges;
  int n = 0;
  while (true) {
    const int len = rng.NextInt(4, 5);
    const bool on_edge = n > 0 && rng.NextBool(0.5);
    const int shared = n == 0 ? 0 : (on_edge ? 2 : 1);
    if (n + len - shared > max_n) break;
    std::vector<int> cycle;
    if (on_edge) {
      const auto [u, v] = edges[rng.NextBounded(edges.size())];
      cycle = {u, v};
    } else if (shared == 1) {
      cycle = {rng.NextInt(0, n - 1)};
    }
    while (static_cast<int>(cycle.size()) < len) cycle.push_back(n++);
    for (int i = on_edge ? 1 : 0; i < len; ++i) {
      edges.emplace_back(cycle[i], cycle[(i + 1) % len]);
    }
  }
  for (int chords = rng.NextInt(0, 2); chords > 0; --chords) {
    const int u = rng.NextInt(0, n - 1);
    const int v = rng.NextInt(0, n - 1);
    if (u != v) edges.emplace_back(u, v);
  }
  Graph g(n);
  for (const auto& [u, v] : edges) g.AddEdge(u, v);
  return g;
}

TEST(PreprocessTest, AtomTreeMatchesBruteForceOracle) {
  // On small graphs (n <= 12): the atoms equal the brute-force split's, both
  // for g itself (CliqueMinimalSeparatorAtoms) and for the reduced graph
  // (Preprocess); each component's atom tree is a tree rooted at its lowest
  // atom whose edges are glued on the two atoms' intersection, a clique
  // minimal separator; and each atom's subtree is a clique tree of a minimal
  // triangulation of the atom.
  WidthCost width;
  int with_three_atoms = 0;
  for (uint64_t seed = 0; seed < 240; ++seed) {
    const std::string where = "seed=" + std::to_string(seed);
    const Graph g = seed % 4 == 0
                        ? workloads::ErdosRenyi(10 + seed % 3, 0.25, seed)
                        : GluedCycles(9 + seed % 4, seed);
    EXPECT_EQ(CliqueMinimalSeparatorAtoms(g), OracleAtoms(g, g.Vertices()))
        << where;

    const PreprocessResult r = Preprocess(g);
    ASSERT_EQ(r.atoms, OracleAtoms(g, r.kept)) << where;
    const size_t a = r.atoms.size();
    ASSERT_EQ(r.atom_parent.size(), a) << where;
    ASSERT_EQ(r.glue.size(), a) << where;
    ASSERT_EQ(r.atom_trees.size(), a) << where;
    if (a >= 3) ++with_three_atoms;

    std::vector<int> kept_to_new;
    const Graph kept = g.InducedSubgraph(r.kept, &kept_to_new);
    auto to_kept = [&](const VertexSet& s) {
      return s.Relabeled(kept_to_new, kept.NumVertices());
    };
    // Each component of g[kept] has one atom tree, rooted at its lowest
    // atom.
    const std::vector<VertexSet> comps = kept.ConnectedComponents();
    std::vector<size_t> comp_of(a);
    for (size_t i = 0; i < a; ++i) {
      const VertexSet atom = to_kept(r.atoms[i]);
      while (!atom.IsSubsetOf(comps[comp_of[i]])) ++comp_of[i];
    }
    int edges = 0;
    for (size_t i = 0; i < a; ++i) {
      const size_t lowest = std::find(comp_of.begin(), comp_of.end(),
                                      comp_of[i]) - comp_of.begin();
      int root = static_cast<int>(i);
      for (size_t steps = 0; r.atom_parent[root] >= 0; ++steps) {
        ASSERT_LT(steps, a) << where << ": cycle through atom " << i;
        root = r.atom_parent[root];
      }
      EXPECT_EQ(root, static_cast<int>(lowest)) << where << " atom " << i;

      const int p = r.atom_parent[i];
      if (p < 0) {
        EXPECT_TRUE(r.glue[i].Empty()) << where;
      } else {
        ++edges;
        EXPECT_EQ(r.glue[i], r.atoms[i].Intersect(r.atoms[p])) << where;
        EXPECT_TRUE(g.IsClique(r.glue[i])) << where;
        EXPECT_TRUE(IsMinimalSeparator(kept, to_kept(r.glue[i]))) << where;
      }

      std::vector<int> atom_to_new;
      const Graph sub = g.InducedSubgraph(r.atoms[i], &atom_to_new);
      TriangulationTree tree = r.atom_trees[i];
      for (std::vector<VertexSet>* sets : {&tree.bags, &tree.separators}) {
        for (VertexSet& s : *sets) {
          s = s.Relabeled(atom_to_new, sub.NumVertices());
        }
      }
      tree.cost = width.Evaluate(sub, tree.bags);
      const Triangulation t = Saturate(sub, std::move(tree));
      testutil::ExpectProperCliqueTree(sub, t, width,
                                       where + " atom " + std::to_string(i));
      EXPECT_TRUE(IsMinimalTriangulation(sub, t.filled)) << where;
    }
    EXPECT_EQ(edges + comps.size(), a) << where;
  }
  EXPECT_GE(with_three_atoms, 100);
}

TEST(PreprocessTest, InfoCountsAtoms) {
  // Two C4s sharing the cut vertex 3: nothing is simplicial, and the cut
  // vertex splits the graph into two 4-vertex atoms.
  Graph g = MakeGraph(7, {{0, 1}, {1, 2}, {2, 3}, {3, 0},    // left cycle
                          {3, 4}, {4, 5}, {5, 6}, {6, 3}});  // right cycle
  PreprocessResult r = Preprocess(g);
  EXPECT_EQ(r.info.vertices_removed, 0);
  EXPECT_EQ(r.info.num_atoms, 2);
  EXPECT_EQ(r.info.largest_atom, 4);
  EXPECT_EQ(r.info.smallest_atom, 4);
  EXPECT_GE(r.info.seconds, 0.0);
}

}  // namespace
}  // namespace mintri
