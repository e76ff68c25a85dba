// Theorem 4.5 in practice (ours, beyond the paper's evaluation): bounded-
// width ranked enumeration via MinTriangB contexts. For each width bound b,
// reports the bounded context size (separators of size <= b, PMCs of size
// <= b+1), the initialization time, the number of width-<= b minimal
// triangulations, and the average delay — versus the unbounded context.
// The point: the bounded context stays small on graphs whose full
// separator set would be large, realizing polynomial delay without poly-MS.

#include <iostream>

#include "bench_util.h"
#include "cost/standard_costs.h"
#include "util/table_printer.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace {

using namespace mintri;
using namespace mintri::bench;

void Sweep(const std::string& name, const Graph& g, int b_lo, int b_hi,
           double budget) {
  std::cout << "### " << name << " (n=" << g.NumVertices()
            << ", m=" << g.NumEdges() << ") ###\n";
  TablePrinter table({"bound", "#seps", "#pmcs", "init(s)", "#results",
                      "avg delay(s)", "complete"});
  WidthCost width;
  for (int b = b_lo; b <= b_hi + 1; ++b) {
    const bool unbounded = b > b_hi;
    const EnumRun run = RunRankedTriang(g, width, CostComposition::kMax,
                                        budget, unbounded ? -1 : b);
    std::string label = unbounded ? "none" : std::to_string(b);
    if (!run.init_ok) {
      table.AddRow({label, "-", "-", TablePrinter::Num(run.init_seconds, 3),
                    "(init timeout)", "-", "-"});
      continue;
    }
    table.AddRow({label, TablePrinter::Int(run.num_separators),
                  TablePrinter::Int(run.num_pmcs),
                  TablePrinter::Num(run.init_seconds, 3),
                  TablePrinter::Int(run.count()),
                  run.count() > 0 ? TablePrinter::Num(run.AvgDelay(), 5) : "-",
                  run.finished ? "yes" : "no"});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main() {
  const double budget = 1.5 * TimeScale();
  std::cout << "=== Bounded-width ranked enumeration (Theorem 4.5 / "
               "MinTriangB), budget " << budget << "s ===\n\n";
  Sweep("grid 5x5", workloads::Grid(5, 5), 4, 7, budget);
  Sweep("myciel5", workloads::Mycielski(5), 9, 12, budget);
  Sweep("G(24, 0.25)", workloads::ConnectedErdosRenyi(24, 0.25, 5150),
        7, 10, budget);
  std::cout << "Expected: bounded contexts are strictly smaller; counts "
               "grow with b and match the unbounded row once b reaches the "
               "largest minimal-triangulation width.\n";
  return 0;
}
