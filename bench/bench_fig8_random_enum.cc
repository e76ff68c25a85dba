// Figure 8: enumeration on random graphs G(n, p) for n in {20, 50}:
//  (a)/(b) average delay of RankedTriang (with and without initialization)
//          and of CKK, per edge probability p;
//  (c)/(d) the fraction of optimal-cost results CKK returns relative to
//          RankedTriang (width and fill, exact and within 10%).
//
// Paper reference: Section 7.3, Figure 8 — for n = 20 RankedTriang's delay
// is smaller throughout; for n = 50 initialization does not terminate for
// p in ~[0.1, 0.5] (marked "-"), consistent with the Figure 7 blow-up.

#include <iostream>

#include "bench_util.h"
#include "cost/standard_costs.h"
#include "util/stats.h"
#include "util/table_printer.h"
#include "workloads/random_graphs.h"

int main() {
  using namespace mintri;
  using namespace mintri::bench;

  const double budget = 1.0 * TimeScale();
  const int samples = 2;  // paper: 3
  std::cout << "=== Figure 8: delay and optimal-result ratio on G(n,p) ===\n"
            << "budget " << budget << "s per run, " << samples
            << " samples per p\n\n";

  WidthCost width;
  FillInCost fill;
  for (int n : {20, 50}) {
    std::cout << "--- n = " << n << " ---\n";
    TablePrinter table({"p", "RT delay", "RT delay-noinit", "CKK delay",
                        "%width", "%(1.1w)", "%fill", "%(1.1f)"});
    for (int pc = 5; pc <= 80; pc += 5) {
      double p = pc / 100.0;
      std::vector<double> rt_delay, rt_delay_noinit, ckk_delay;
      std::vector<double> pct_w, pct_w11, pct_f, pct_f11;
      int feasible = 0;
      for (int s = 0; s < samples; ++s) {
        Graph g = workloads::ConnectedErdosRenyi(
            n, p, 880000 + 100ULL * n + 10ULL * pc + s);
        EnumRun rt_w =
            RunRankedTriang(g, width, CostComposition::kMax, budget);
        if (!rt_w.init_ok || rt_w.count() == 0) continue;
        EnumRun rt_f =
            RunRankedTriang(g, fill, CostComposition::kSum, budget);
        EnumRun ckk = RunCkk(g, budget);
        if (rt_f.count() == 0 || ckk.count() == 0) continue;
        ++feasible;
        rt_delay.push_back(0.5 * (rt_w.AvgDelay() + rt_f.AvgDelay()));
        rt_delay_noinit.push_back(
            0.5 * (rt_w.AvgDelayNoInit() + rt_f.AvgDelayNoInit()));
        ckk_delay.push_back(ckk.AvgDelay());
        int wmin = rt_w.widths.front();
        long long fmin = rt_f.fills.front();
        auto pct = [](double a, double b) {
          return b > 0 ? 100.0 * a / b : 0.0;
        };
        pct_w.push_back(pct(ckk.CountWidthAtMost(wmin),
                            rt_w.CountWidthAtMost(wmin)));
        pct_w11.push_back(pct(ckk.CountWidthAtMost(1.1 * wmin),
                              rt_w.CountWidthAtMost(1.1 * wmin)));
        pct_f.push_back(pct(ckk.CountFillAtMost(fmin),
                            rt_f.CountFillAtMost(fmin)));
        pct_f11.push_back(pct(ckk.CountFillAtMost(1.1 * fmin),
                              rt_f.CountFillAtMost(1.1 * fmin)));
      }
      if (feasible == 0) {
        // RankedTriang's initialization did not terminate: the paper's "no
        // data" region of Figure 8(b)/(d).
        table.AddRow({TablePrinter::Num(p, 2), "-", "-", "-", "-", "-", "-",
                      "-"});
        continue;
      }
      table.AddRow({TablePrinter::Num(p, 2),
                    TablePrinter::Num(Mean(rt_delay), 5),
                    TablePrinter::Num(Mean(rt_delay_noinit), 5),
                    TablePrinter::Num(Mean(ckk_delay), 5),
                    TablePrinter::Num(Mean(pct_w), 1),
                    TablePrinter::Num(Mean(pct_w11), 1),
                    TablePrinter::Num(Mean(pct_f), 1),
                    TablePrinter::Num(Mean(pct_f11), 1)});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Shape check vs the paper: n=20 rows are all feasible with "
               "RankedTriang delay at or below CKK's; n=50 rows around "
               "p=0.1..0.5 show '-' (initialization infeasible).\n";
  return 0;
}
