// Figures 5 and 6, from one MinSep→PMC probe per graph of every dataset
// family.
//
// Figure 5: tractability of computing the minimal separators and the PMCs.
// For each family, counts the graphs whose MinSep computation finished
// within the (scaled) one-minute budget and whose PMC computation finished
// within the (scaled) 30-minute budget:
//
//   Terminated     — both finished (usable by RankedTriang)
//   MS Terminated  — separators finished, PMCs did not
//   Not Terminated — separator enumeration already blew the budget
//
// Paper reference: Section 7.2, Figure 5 — "around 50%" of graphs are
// tractable, and whenever MinSep terminates PMC usually does too.
//
// Figure 6: the number of minimal separators versus the number of edges,
// over the graphs whose separator enumeration terminates (log-log scatter
// in the paper; printed here as rows, one per graph).
//
// Paper reference: Section 7.2, Figure 6 — "these numbers are quite often
// comparable to the number of edges, and sometimes even smaller."

#include <iostream>

#include "bench_util.h"
#include "util/table_printer.h"
#include "workloads/families.h"

int main() {
  using namespace mintri;
  using namespace mintri::bench;

  std::cout << "=== Figure 5: tractability of MinSep / PMC per dataset "
               "family ===\n"
            << "budgets: MinSep " << MinSepBudget() << "s, PMC "
            << PmcBudget() << "s (paper: 60s / 30min; scale with "
            << "MINTRI_TIME_SCALE)\n\n";

  TablePrinter table({"family", "#graphs", "Terminated", "MS Terminated",
                      "Not Terminated"});
  TablePrinter scatter({"family", "graph", "n", "#edges", "#minseps",
                        "minseps/edges"});
  int total = 0, total_terminated = 0;
  int ms_tractable = 0, fewer = 0;
  for (const auto& family : workloads::AllFamilies()) {
    int terminated = 0, ms_terminated = 0, not_terminated = 0;
    for (const auto& dg : family.graphs) {
      const PmcProbe probe = ProbeMinSepsThenPmcs(dg.graph, /*threads=*/1);
      if (!probe.separators_complete) {
        ++not_terminated;
        continue;
      }
      ++(probe.pmcs_complete ? terminated : ms_terminated);
      const double ratio = dg.graph.NumEdges() > 0
                               ? static_cast<double>(probe.num_separators) /
                                     dg.graph.NumEdges()
                               : 0.0;
      ++ms_tractable;
      if (ratio <= 1.0) ++fewer;
      scatter.AddRow({family.name, dg.name,
                      TablePrinter::Int(dg.graph.NumVertices()),
                      TablePrinter::Int(dg.graph.NumEdges()),
                      TablePrinter::Int(probe.num_separators),
                      TablePrinter::Num(ratio, 2)});
    }
    total += static_cast<int>(family.graphs.size());
    total_terminated += terminated;
    table.AddRow({family.name, TablePrinter::Int(family.graphs.size()),
                  TablePrinter::Int(terminated),
                  TablePrinter::Int(ms_terminated),
                  TablePrinter::Int(not_terminated)});
  }
  table.Print(std::cout);
  std::cout << "\nOverall: " << total_terminated << "/" << total
            << " graphs fully tractable ("
            << (100 * total_terminated / (total > 0 ? total : 1))
            << "%; the paper reports ~50% on its corpus)\n";

  std::cout << "\n=== Figure 6: #minimal-separators vs #edges (MS-tractable "
               "graphs) ===\n\n";
  scatter.Print(std::cout);
  std::cout << "\n" << fewer << "/" << ms_tractable
            << " MS-tractable graphs have no more minimal separators than "
               "edges (the paper observes the counts are often comparable "
               "or smaller).\n";
  return 0;
}
