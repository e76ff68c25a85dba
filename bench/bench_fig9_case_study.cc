// Figure 9 (Appendix B): case study on two specific graphs — one CSP graph
// (the paper uses myciel5g_3; we use the Mycielski-5 graph it derives from)
// and one object-detection graph. For each algorithm, reports per time
// interval: the cumulative number of results and the minimum / median width
// of the results produced in that interval.
//
// Paper reference: Appendix B, Figure 9 — CKK returns more results on the
// CSP graph but of higher width; RankedTriang returns only optimal-width
// results and its delay is far more stable.

#include <iostream>

#include "bench_util.h"
#include "cost/standard_costs.h"
#include "util/stats.h"
#include "util/table_printer.h"
#include "workloads/graphical_models.h"
#include "workloads/named_graphs.h"

namespace {

using namespace mintri;
using namespace mintri::bench;

void Report(const std::string& label, const EnumRun& run, double budget,
            int intervals) {
  std::cout << label;
  if (!run.init_ok) {
    std::cout << ": initialization did not terminate within " << budget
              << "s\n\n";
    return;
  }
  std::cout << " (init " << TablePrinter::Num(run.init_seconds, 3)
            << "s, " << run.count() << " results"
            << (run.finished ? ", complete" : "") << ")\n";
  TablePrinter table({"t<=", "#results", "min-w(interval)",
                      "median-w(interval)"});
  // The budget runs from the end of initialization.
  const double horizon = run.init_seconds + budget;
  size_t idx = 0;
  long long cumulative = 0;
  for (int i = 1; i <= intervals; ++i) {
    double t = horizon * i / intervals;
    std::vector<double> widths;
    while (idx < run.result_seconds.size() && run.result_seconds[idx] <= t) {
      widths.push_back(run.widths[idx]);
      ++idx;
      ++cumulative;
    }
    table.AddRow({TablePrinter::Num(t, 2), TablePrinter::Int(cumulative),
                  widths.empty() ? "-" : TablePrinter::Num(Min(widths), 0),
                  widths.empty() ? "-"
                                 : TablePrinter::Num(Median(widths), 0)});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

void CaseStudy(const std::string& name, const Graph& g, double budget) {
  std::cout << "### " << name << ": " << g.NumVertices() << " vertices, "
            << g.NumEdges() << " edges ###\n\n";
  WidthCost width;
  Report("RankedTriang (width)",
         RunRankedTriang(g, width, CostComposition::kMax, budget), budget, 8);
  Report("CKK", RunCkk(g, budget), budget, 8);
}

}  // namespace

int main() {
  const double budget = 2.0 * TimeScale();
  std::cout << "=== Figure 9: case studies (" << budget
            << "s per run) ===\n\n";
  CaseStudy("CSP graph (myciel5g-like)", workloads::Mycielski(5), budget);
  CaseStudy("Object-detection graph",
            workloads::ObjectDetectionGraph(15, 0.4, 7, 424242), budget);
  std::cout << "Shape check vs the paper: CKK may produce more results but "
               "with higher/median widths drifting upward; RankedTriang's "
               "interval min-width stays at the optimum.\n";
  return 0;
}
