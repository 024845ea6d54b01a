// bench_whatif — causal what-if engine versus re-simulation (DESIGN.md §13).
//
// For each full-size Livermore kernel {3, 4, 17} the bench recovers the
// event-based approximation, builds the what-if dependency DAG, and runs a
// 64-experiment virtual-speedup sweep (64 distinct (site, pct) plans) two
// ways:
//
//   * engine: WhatIfEngine::run_many over the trace's WhatIfDag —
//     lane-batched dense sweeps fanned across a TaskPool.  The DAG is
//     built once per trace (like the TraceIndex both sides share) and its
//     one-time cost is reported separately;
//   * reference: 64 independent whatif_reference calls, each rewriting
//     every event's cost and re-simulating the full trace.
//
// Gates before any timing is trusted: the engine must be bit-identical to
// the reference on every plan of every sweep, and bit-identical to itself
// at 1 and 8 worker threads.  Speedups are engine-vs-reference in the same
// process, so they are comparable across hosts (absolute rates are not).
// Results go to JSON (--out, default BENCH_whatif.json);
// tools/check_bench.py gates CI runs against
// bench/baseline/BENCH_whatif.json (floor: 10x per kernel).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/sites.hpp"
#include "bench_util.hpp"
#include "support/check.hpp"
#include "support/fsio.hpp"
#include "support/parallel.hpp"
#include "support/text.hpp"
#include "trace/index.hpp"
#include "whatif/whatif.hpp"

namespace {

using namespace perturb;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSweepSize = 64;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename Fn>
double time_best(std::size_t reps, Fn&& body) {
  double best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    body();
    const double elapsed = seconds_since(start);
    if (elapsed > 0.0 && (best == 0.0 || elapsed < best)) best = elapsed;
  }
  return best;
}

/// 64 distinct (site, pct) plans: every site of the registry at descending
/// speedups until the sweep is full.
std::vector<whatif::WhatIfPlan> sweep_plans(
    const analysis::SiteRegistry& sites) {
  std::vector<whatif::WhatIfPlan> plans;
  for (std::int64_t pct = 100; pct >= 1 && plans.size() < kSweepSize; pct -= 5)
    for (analysis::SiteId s = 0;
         s < sites.size() && plans.size() < kSweepSize; ++s)
      plans.push_back({s, pct});
  return plans;
}

struct KernelRow {
  int loop = 0;
  std::size_t events = 0;
  std::size_t anchors = 0;
  std::size_t edges = 0;
  double dag_s = 0.0;
  double engine_s = 0.0;
  double reference_s = 0.0;
  double speedup = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(argc, argv);
  const std::string out_path = cli.get("out", "BENCH_whatif.json");
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 3));
  const std::int64_t n = bench::trip_from_cli(cli, 2000);
  const experiments::Setup setup = bench::setup_from_cli(cli);
  support::TaskPool pool(static_cast<std::size_t>(cli.get_int("threads", 0)));

  bench::print_header(
      "BENCH whatif",
      "causal what-if sweeps (dense lane-batched passes over the anchor DAG)\n"
      "versus rewrite-costs-and-resimulate (DESIGN.md §13)");

  std::vector<KernelRow> rows;
  for (const int loop : {3, 4, 17}) {
    const auto run = experiments::run_concurrent_experiment(
        loop, n, setup, experiments::PlanKind::kFull);
    const trace::Trace& t = run.event_based.approx;
    const trace::TraceIndex index(t);
    const analysis::SiteRegistry sites(index);
    PERTURB_CHECK_MSG(sites.size() > 0, "recovered trace interned no sites");
    const std::vector<whatif::WhatIfPlan> plans = sweep_plans(sites);
    PERTURB_CHECK_MSG(plans.size() == kSweepSize,
                      "registry too small for a 64-experiment sweep");

    // --- equivalence gates ------------------------------------------------
    const auto dag_start = Clock::now();
    const whatif::WhatIfDag dag(index, sites);
    const double dag_s = seconds_since(dag_start);
    std::vector<whatif::WhatIfResult> reference;
    reference.reserve(plans.size());
    for (const auto& plan : plans)
      reference.push_back(whatif::whatif_reference(index, sites, plan));
    {
      whatif::WhatIfEngine engine(dag);
      const auto fast = engine.run_many(plans, pool);
      for (std::size_t i = 0; i < plans.size(); ++i)
        PERTURB_CHECK_MSG(fast[i] == reference[i],
                          "engine result differs from the reference oracle");
      support::TaskPool one(1), eight(8);
      whatif::WhatIfEngine e1(dag), e8(dag);
      PERTURB_CHECK_MSG(e1.run_many(plans, one) == e8.run_many(plans, eight),
                        "sweep results vary with thread count");
    }

    // --- timing -----------------------------------------------------------
    // A fresh engine per rep: the memo must not turn later reps into
    // lookups.  The DAG is the trace's one-time artifact, timed above.
    const double engine_s = time_best(reps, [&] {
      whatif::WhatIfEngine engine(dag);
      if (engine.run_many(plans, pool).size() != plans.size()) std::abort();
    });
    const double reference_s = time_best(reps, [&] {
      trace::Tick sink = 0;
      for (const auto& plan : plans)
        sink += whatif::whatif_reference(index, sites, plan).makespan;
      if (sink == 0) std::abort();
    });

    KernelRow row;
    row.loop = loop;
    row.events = t.size();
    row.anchors = dag.num_anchors();
    row.edges = dag.num_edges();
    row.dag_s = dag_s;
    row.engine_s = engine_s;
    row.reference_s = reference_s;
    row.speedup = engine_s > 0.0 ? reference_s / engine_s : 0.0;
    rows.push_back(row);
  }

  std::printf("equivalence: engine == reference on %zu plans per kernel, "
              "bit-identical at 1/8 threads\n\n", kSweepSize);
  std::printf("timing (n=%lld, %zu reps, %zu-experiment sweeps, "
              "%zu workers)\n",
              static_cast<long long>(n), reps, kSweepSize, pool.size());
  std::printf("  %-6s %9s %9s %9s %9s %11s %13s %9s\n", "loop", "events",
              "anchors", "edges", "dag ms", "engine ms", "reference ms",
              "speedup");
  for (const KernelRow& r : rows)
    std::printf("  lfk%-3d %9zu %9zu %9zu %9.2f %11.2f %13.2f %8.2fx\n",
                r.loop, r.events, r.anchors, r.edges, r.dag_s * 1e3,
                r.engine_s * 1e3, r.reference_s * 1e3, r.speedup);

  // --- JSON ----------------------------------------------------------------
  std::string json = support::strf(
      "{\n  \"bench\": \"whatif\",\n  \"n\": %lld,\n"
      "  \"sweep_experiments\": %zu,\n  \"rates\": {",
      static_cast<long long>(n), kSweepSize);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    json += support::strf(
        "%s\"whatif_sweep_lfk%d_engine\": %.1f, "
        "\"whatif_sweep_lfk%d_reference\": %.1f",
        i ? ", " : "", r.loop,
        r.engine_s > 0.0 ? static_cast<double>(kSweepSize) / r.engine_s : 0.0,
        r.loop,
        r.reference_s > 0.0
            ? static_cast<double>(kSweepSize) / r.reference_s
            : 0.0);
  }
  json += "},\n  \"speedups\": {";
  for (std::size_t i = 0; i < rows.size(); ++i)
    json += support::strf("%s\"whatif_sweep_lfk%d\": %.3f", i ? ", " : "",
                          rows[i].loop, rows[i].speedup);
  // The bar this PR was built to clear: a 64-experiment sweep at least an
  // order of magnitude faster than 64 reference re-simulations.
  json += "},\n  \"floors\": {";
  for (std::size_t i = 0; i < rows.size(); ++i)
    json += support::strf("%s\"whatif_sweep_lfk%d\": 10.0", i ? ", " : "",
                          rows[i].loop);
  json += "}\n}\n";

  std::string werr;
  PERTURB_CHECK_MSG(support::write_file_atomic(out_path, json, &werr),
                    "cannot write bench output file");
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
