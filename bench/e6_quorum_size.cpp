// E6 — §5.3/§6: quorum size K per construction as N grows. The paper's
// claims: grid/FPP ~ sqrt(N); tree log N best case; HQC N^0.63 (the OCR
// prints N^0.43 — DESIGN.md D5; we report measured sizes and the fitted
// exponent); grid-set ~ (m+1)/2 * grid(G); RST ~ (G+1)/2 * grid(m);
// majority (N+1)/2.
//
// Ported to the unified bench::Runner via add_custom: each series (and the
// tree-degradation sweep) is one combinatorics job on the worker pool, and
// its per-N sizes land in the run's registry for the tables and the suite
// JSON.
#include <cmath>
#include <iostream>

#include "common/rng.h"
#include "quorum/factory.h"
#include "quorum/tree.h"
#include "runner.h"

int main(int argc, char** argv) {
  using namespace dqme;
  using harness::ExperimentResult;
  using harness::Table;

  auto opts = bench::parse_bench_flags(argc, argv, "e6_quorum_size");

  struct Series {
    const char* kind;
    std::vector<int> ns;
    const char* paper;
  };
  const std::vector<Series> series = {
      {"grid", {9, 25, 49, 100, 400, 2500, 10000}, "~2*sqrt(N)-1"},
      {"fpp", {7, 13, 31, 57, 133, 307}, "q+1 ~ sqrt(N)"},
      {"tree", {7, 15, 31, 63, 127, 255, 1023}, "log2(N+1) best case"},
      {"hqc", {9, 27, 81, 243, 729, 6561}, "N^0.63 (OCR: N^0.43)"},
      {"majority", {9, 25, 101, 1001}, "floor(N/2)+1"},
      {"gridset", {16, 36, 100, 400, 2500}, "(m/2+1)*grid(G)"},
      {"rst", {16, 36, 100, 400, 2500}, "(G/2+1)*grid(m)"},
  };
  const std::vector<int> dead_counts = {0, 5, 15, 30, 50, 63};

  auto gauge_of = [](const char* name) {
    return [name](const ExperimentResult& r) {
      const double* g = r.registry.find_gauge(name);
      return g != nullptr ? *g : 0;
    };
  };

  bench::Runner run("e6_quorum_size", opts);
  std::vector<int> srow;
  for (const Series& s : series) {
    srow.push_back(run.add_custom(
        s.kind,
        [s](uint64_t) {
          ExperimentResult res;
          res.drained_clean = true;  // combinatorics: nothing to drain
          double sum_log_k = 0, sum_log_n = 0, sum_log_kn = 0,
                 sum_log_n2 = 0;
          for (int n : s.ns) {
            auto qs = quorum::make_quorum_system(s.kind, n);
            const double k = qs->mean_quorum_size();
            const std::string nn = std::to_string(n);
            res.registry.gauge("K.mean.N" + nn) = k;
            res.registry.gauge("K.max.N" + nn) =
                static_cast<double>(qs->max_quorum_size());
            // Least-squares fit of log K = a log N + b.
            const double ln = std::log(static_cast<double>(n));
            const double lk = std::log(k);
            sum_log_n += ln;
            sum_log_k += lk;
            sum_log_kn += ln * lk;
            sum_log_n2 += ln * ln;
          }
          const double cnt = static_cast<double>(s.ns.size());
          res.registry.gauge("exponent") =
              (cnt * sum_log_kn - sum_log_n * sum_log_k) /
              (cnt * sum_log_n2 - sum_log_n * sum_log_n);
          return res;
        },
        {{"exponent", gauge_of("exponent")}}));
  }

  // §6: the tree quorum's graceful degradation — log N paths when all is
  // well, growing toward majority-sized substituted sets as sites fail
  // (the paper quotes the degraded worst case; we measure the whole curve).
  const int tree_row = run.add_custom(
      "tree_degradation",
      [dead_counts](uint64_t seed) {
        ExperimentResult res;
        res.drained_clean = true;
        quorum::TreeQuorum tree(127);
        Rng rng(40 + seed);  // seed 1 reproduces the historical Rng(41) run
        for (int dead : dead_counts) {
          int avail = 0, maxk = 0;
          double sumk = 0;
          const int trials = 2000;
          for (int trial = 0; trial < trials; ++trial) {
            std::vector<bool> alive(127, true);
            for (int v : rng.sample_without_replacement(127, dead))
              alive[static_cast<size_t>(v)] = false;
            auto q = tree.quorum_for_alive(
                static_cast<SiteId>(rng.uniform_int(0, 126)), alive);
            if (!q) continue;
            ++avail;
            sumk += static_cast<double>(q->size());
            maxk = std::max(maxk, static_cast<int>(q->size()));
          }
          const std::string d = std::to_string(dead);
          res.registry.gauge("avail_pct.D" + d) = 100.0 * avail / 2000;
          res.registry.gauge("K.mean.D" + d) = avail ? sumk / avail : 0;
          res.registry.gauge("K.max.D" + d) = maxk;
        }
        return res;
      },
      {{"avail_pct.D63", gauge_of("avail_pct.D63")},
       {"K.mean.D63", gauge_of("K.mean.D63")}});
  run.execute();

  std::cout << "E6 — quorum sizes by construction\n\n";
  for (size_t i = 0; i < series.size(); ++i) {
    const Series& s = series[i];
    const auto& reg = run.first(srow[i]).registry;
    const double exponent = *reg.find_gauge("exponent");
    std::cout << s.kind << "  (paper: " << s.paper << "; fitted K ~ N^"
              << Table::num(exponent, 2) << ")\n";
    Table t({"N", "mean K", "max K", "K/sqrt(N)", "K/log2(N)"});
    for (int n : s.ns) {
      const std::string nn = std::to_string(n);
      const double k = *reg.find_gauge("K.mean.N" + nn);
      t.add_row({Table::integer(static_cast<uint64_t>(n)), Table::num(k, 2),
                 Table::integer(static_cast<uint64_t>(
                     *reg.find_gauge("K.max.N" + nn))),
                 Table::num(k / std::sqrt(static_cast<double>(n)), 2),
                 Table::num(k / std::log2(static_cast<double>(n)), 2)});
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "Expected shape: grid/FPP exponent ~0.5, tree ~log "
               "(exponent -> 0), HQC ~0.63, majority ~1.0, grid-set/RST "
               "between 0.5 and 1.\n\n";

  std::cout << "Tree quorum size under failures (N=127, best case "
            << "log2(128)=7; mean/max over 2000 random failure sets)\n";
  {
    const auto& reg = run.first(tree_row).registry;
    Table t({"failed sites", "available", "mean K", "max K"});
    for (int dead : dead_counts) {
      const std::string d = std::to_string(dead);
      const double avail = *reg.find_gauge("avail_pct.D" + d);
      t.add_row({Table::integer(static_cast<uint64_t>(dead)),
                 Table::num(avail, 1) + "%",
                 avail > 0 ? Table::num(*reg.find_gauge("K.mean.D" + d), 2)
                           : "-",
                 avail > 0 ? Table::integer(static_cast<uint64_t>(
                                 *reg.find_gauge("K.max.D" + d)))
                           : "-"});
    }
    t.print(std::cout);
  }
  return run.finish(std::cout);
}
