// Ranked enumeration of proper tree decompositions (Proposition 6.1): the
// clique tree of every enumerated minimal triangulation, as CliqueTreeOf,
// must be a proper tree decomposition of the input graph, and its width
// must be the result's width.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "cost/standard_costs.h"
#include "enumeration/ranked_enum.h"
#include "enumeration/tree_decomposition.h"
#include "test_util.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

// Drains up to `cap` results of `g` ranked by `cost`, checks each one's
// clique tree and decomposition, and returns the number checked.
int CheckEnumeratedCliqueTrees(const Graph& g, const BagCost& cost,
                               const std::string& where, int cap = 200) {
  auto ctx = TriangulationContext::Build(g);
  EXPECT_TRUE(ctx.has_value()) << where;
  if (!ctx.has_value()) return 0;
  RankedTriangulationEnumerator e(*ctx, cost);
  int count = 0;
  while (count < cap) {
    std::optional<Triangulation> t = e.Next();
    if (!t.has_value()) break;
    ++count;
    const std::string at = where + " #" + std::to_string(count);
    testutil::ExpectProperCliqueTree(g, *t, cost, at);
    const TreeDecomposition td = CliqueTreeOf(*t);
    EXPECT_EQ(td.bags.size(), t->bags.size()) << at;
    EXPECT_EQ(td.edges.size(), t->bags.size() - 1) << at << ": not a tree";
    EXPECT_EQ(td.Width(), t->Width()) << at;
    EXPECT_TRUE(td.IsValidFor(t->filled)) << at;
    EXPECT_TRUE(td.IsProperFor(g)) << at;
  }
  return count;
}

TEST(CliqueTreeEnumTest, PaperExampleCliqueTreesAreProper) {
  // Figure 1's graph has exactly two minimal triangulations: width 2 (fill
  // {u,v}) and width 3 (fill {w1,w2,w3}).
  Graph g = testutil::PaperExampleGraph();
  WidthCost width;
  EXPECT_EQ(CheckEnumeratedCliqueTrees(g, width, "paper/width"), 2);
  FillInCost fill;
  EXPECT_EQ(CheckEnumeratedCliqueTrees(g, fill, "paper/fill"), 2);
}

TEST(CliqueTreeEnumTest, RandomGraphCliqueTreesAreProper) {
  WidthCost width;
  FillInCost fill;
  for (int seed = 0; seed < 8; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(9, 0.3, 40000 + seed);
    const std::string where = "seed " + std::to_string(seed);
    EXPECT_GT(CheckEnumeratedCliqueTrees(g, width, where + "/width"), 0);
    EXPECT_GT(CheckEnumeratedCliqueTrees(g, fill, where + "/fill"), 0);
  }
}

}  // namespace
}  // namespace mintri
