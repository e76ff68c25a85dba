#include "preprocess/preprocess.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "chordal/lb_triang.h"
#include "triang/triangulation.h"
#include "util/timer.h"

namespace mintri {

namespace {

/// Appends the atoms of the connected `part` of g with their subtrees and
/// atom tree: cuts the clique tree of H = LbTriangMinDegree(g[part]) at
/// every adhesion that is a clique of g. Each subtree left is the clique
/// tree of H[A] for one atom A, the union of its bags, and each cut edge
/// links two atoms. The part's atom tree is rooted at its lowest atom.
void AddAtomsOfPart(const Graph& g, const VertexSet& part,
                    PreprocessResult* r) {
  const int n = g.NumVertices();
  const Graph sub = g.InducedSubgraph(part);
  const std::vector<int> new_to_old = part.ToVector();

  const TriangulationTree tree = CliqueTreeOfChordal(LbTriangMinDegree(sub));
  const int first = static_cast<int>(r->atoms.size());
  std::vector<int> atom_of(tree.bags.size());
  std::vector<int> local_of(tree.bags.size());
  for (size_t b = 0; b < tree.bags.size(); ++b) {
    const int p = tree.parent[b];  // < b: bags come in MCS order
    const VertexSet adhesion =
        p < 0 ? VertexSet() : tree.bags[b].Intersect(tree.bags[p]);
    const bool cut = p < 0 || sub.IsClique(adhesion);
    if (cut) {
      atom_of[b] = static_cast<int>(r->atoms.size());
      r->atoms.emplace_back(n);
      r->atom_parent.push_back(p < 0 ? -1 : atom_of[p]);
      r->atom_trees.emplace_back();
    } else {
      atom_of[b] = atom_of[p];
    }
    TriangulationTree& t = r->atom_trees[atom_of[b]];
    local_of[b] = static_cast<int>(t.bags.size());
    t.parent.push_back(cut ? -1 : local_of[p]);
    if (!cut) t.separators.push_back(adhesion.Relabeled(new_to_old, n));
    t.bags.push_back(tree.bags[b].Relabeled(new_to_old, n));
    r->atoms[atom_of[b]].UnionWith(t.bags.back());
  }
  int lowest = first;
  for (int i = first; i < static_cast<int>(r->atoms.size()); ++i) {
    std::vector<VertexSet>& seps = r->atom_trees[i].separators;
    std::sort(seps.begin(), seps.end());
    seps.erase(std::unique(seps.begin(), seps.end()), seps.end());
    if (r->atoms[i] < r->atoms[lowest]) lowest = i;
  }
  Reroot(&r->atom_parent, lowest);
}

/// Sorts the atoms, carrying their parents and subtrees along, and glues
/// each atom to its parent on their intersection: the cut edge's adhesion,
/// since a vertex off it lies on one side of the edge only.
void SortAtoms(PreprocessResult* r) {
  std::vector<int> order(r->atoms.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int i, int j) { return r->atoms[i] < r->atoms[j]; });
  auto permute = [&](auto* items) {
    auto old = std::move(*items);
    items->clear();
    for (int i : order) items->push_back(std::move(old[i]));
  };
  permute(&r->atoms);
  permute(&r->atom_parent);
  permute(&r->atom_trees);
  std::vector<int> rank(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    rank[order[i]] = static_cast<int>(i);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    int& p = r->atom_parent[i];
    p = p < 0 ? -1 : rank[p];
    r->glue.push_back(p < 0 ? VertexSet(r->atoms[i].capacity())
                            : r->atoms[i].Intersect(r->atoms[p]));
  }
}

}  // namespace

std::vector<VertexSet> CliqueMinimalSeparatorAtoms(const Graph& g) {
  PreprocessResult r;
  for (const VertexSet& comp : g.ConnectedComponents()) {
    AddAtomsOfPart(g, comp, &r);
  }
  std::sort(r.atoms.begin(), r.atoms.end());
  return r.atoms;
}

PreprocessResult Preprocess(const Graph& g, const Deadline* deadline) {
  WallTimer timer;
  PreprocessResult r;
  const int n = g.NumVertices();
  r.kept = g.Vertices();
  r.reduced = g;

  bool progress = true;
  while (progress && !IsExpired(deadline)) {
    progress = false;
    for (int v = 0; v < n; ++v) {
      if (!r.kept.Contains(v)) continue;
      VertexSet nb = r.reduced.Neighbors(v).Intersect(r.kept);
      if (!r.reduced.IsClique(nb)) continue;
      EliminatedVertex ev;
      ev.vertex = v;
      ev.bag = nb;
      ev.bag.Insert(v);
      r.eliminated.push_back(std::move(ev));
      r.kept.Erase(v);
      progress = true;
    }
  }

  if (!r.kept.Empty()) {
    for (const VertexSet& comp :
         r.reduced.ComponentsAfterRemoving(r.kept.Complement())) {
      if (IsExpired(deadline)) break;
      AddAtomsOfPart(r.reduced, comp, &r);
    }
    SortAtoms(&r);
  }

  r.info.vertices_removed = static_cast<int>(r.eliminated.size());
  r.info.num_atoms = static_cast<int>(r.atoms.size());
  for (const VertexSet& atom : r.atoms) {
    int size = atom.Count();
    r.info.largest_atom = std::max(r.info.largest_atom, size);
    r.info.smallest_atom = r.info.smallest_atom == 0
                               ? size
                               : std::min(r.info.smallest_atom, size);
  }
  r.info.seconds = timer.Seconds();
  return r;
}

}  // namespace mintri
