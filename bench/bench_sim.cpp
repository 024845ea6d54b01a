// bench_sim — simulator fast-path and experiment-grid throughput.
//
// Three sections, each gated on an in-process equivalence check against the
// retained reference implementation before any timing is trusted:
//
//   * simulate: event rate of the devirtualized engine (sealed hook
//     dispatch, per-processor arenas, flat ready selection) versus
//     simulate_reference(), for Livermore loop 3 (the DOACROSS acceptance
//     workload) and loop 17, under NullInstrumentation and the full
//     cost-table plan;
//   * trace compare: trace::compare() versus compare_reference(), once on
//     a pair the per-processor match answers (trace_compare) and once on a
//     pareto-workload pair that takes the hash fallback
//     (trace_compare_fallback);
//   * grid: wall-clock of experiments::run_grid over the machine-size
//     ablation's scenario set (loops 3 and 17 across processor counts) at 1
//     and 8 worker threads, versus run_grid_reference(), the serial
//     pre-optimization driver.
//
// Speedup ratios are measured fast-vs-reference in the same process, so
// they are comparable across hosts (absolute rates are not).  Results are
// written as JSON (--out, default BENCH_sim.json) with the floors the
// optimization was built to clear; tools/check_bench.py gates CI runs
// against the committed baseline in bench/baseline/BENCH_sim.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "loops/programs.hpp"
#include "sim/engine.hpp"
#include "support/check.hpp"
#include "support/fsio.hpp"
#include "support/metrics.hpp"
#include "support/text.hpp"
#include "trace/trace_stats.hpp"
#include "workload/workload.hpp"

namespace {

using namespace perturb;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Fastest of `reps` runs, in seconds.  The minimum estimates the
/// noise-free cost; means are skewed arbitrarily by scheduler interference.
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

bool traces_equal(const trace::Trace& a, const trace::Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i] == b[i])) return false;
  return true;
}

bool quality_equal(const core::ApproximationQuality& a,
                   const core::ApproximationQuality& b) {
  return a.measured_over_actual == b.measured_over_actual &&
         a.approx_over_actual == b.approx_over_actual &&
         a.percent_error == b.percent_error &&
         a.mean_abs_event_error == b.mean_abs_event_error &&
         a.rms_event_error == b.rms_event_error &&
         a.p50_event_error == b.p50_event_error &&
         a.p95_event_error == b.p95_event_error &&
         a.matched_events == b.matched_events &&
         a.degraded_input == b.degraded_input;
}

bool runs_equal(const experiments::LoopRun& a, const experiments::LoopRun& b) {
  return traces_equal(a.actual, b.actual) &&
         traces_equal(a.measured, b.measured) &&
         traces_equal(a.time_based, b.time_based) &&
         traces_equal(a.event_based.approx, b.event_based.approx) &&
         quality_equal(a.tb_quality, b.tb_quality) &&
         quality_equal(a.eb_quality, b.eb_quality);
}

struct Entry {
  std::string key;
  double fast_rate = 0.0;  ///< events (or cells) per second, optimized
  double ref_rate = 0.0;   ///< same workload through the reference path
  double speedup() const { return ref_rate > 0.0 ? fast_rate / ref_rate : 0.0; }
};

Entry bench_simulate(const std::string& key, const sim::MachineConfig& cfg,
                     const sim::Program& program,
                     const sim::InstrumentationHook& hook, std::size_t reps) {
  const trace::Trace fast = sim::simulate(cfg, program, hook, key);
  const trace::Trace ref = sim::simulate_reference(cfg, program, hook, key);
  PERTURB_CHECK_MSG(traces_equal(fast, ref),
                    key + ": fast-path trace differs from reference engine");
  const auto events = static_cast<double>(fast.size());

  Entry e;
  e.key = key;
  e.fast_rate = events / time_best(reps, [&] {
    const auto t = sim::simulate(cfg, program, hook, key);
    if (t.size() != fast.size()) std::abort();
  });
  e.ref_rate = events / time_best(reps, [&] {
    const auto t = sim::simulate_reference(cfg, program, hook, key);
    if (t.size() != fast.size()) std::abort();
  });
  std::printf("  %-22s %12.0f ev/s fast %12.0f ev/s ref  %6.2fx (%zu events)\n",
              e.key.c_str(), e.fast_rate, e.ref_rate, e.speedup(), fast.size());
  return e;
}

bool comparisons_equal(const trace::TraceComparison& a,
                       const trace::TraceComparison& b) {
  return a.matched_events == b.matched_events &&
         a.unmatched_a == b.unmatched_a && a.unmatched_b == b.unmatched_b &&
         a.mean_abs_time_error == b.mean_abs_time_error &&
         a.rms_time_error == b.rms_time_error &&
         a.p50_abs_time_error == b.p50_abs_time_error &&
         a.p95_abs_time_error == b.p95_abs_time_error &&
         a.max_abs_time_error == b.max_abs_time_error &&
         a.total_time_ratio == b.total_time_ratio;
}

/// Times trace::compare(a, b) against compare_reference after checking them
/// bit-identical and checking which matcher compare takes: the hash
/// fallback when `fallback`, the per-processor match otherwise.
Entry bench_compare(const std::string& key, const trace::Trace& a,
                    const trace::Trace& b, bool fallback, std::size_t reps) {
  support::Metrics::enable(true);
  support::Metrics::reset();
  const auto fast_cmp = trace::compare(a, b);
  const auto fallbacks =
      support::Metrics::snapshot().counters.at("trace.compare.fallbacks");
  support::Metrics::enable(false);
  PERTURB_CHECK_MSG(fallbacks == (fallback ? 1u : 0u),
                    key + ": compare took the other matcher");
  PERTURB_CHECK_MSG(comparisons_equal(fast_cmp, trace::compare_reference(a, b)),
                    key + ": compare differs from compare_reference");
  const auto events = static_cast<double>(a.size());
  Entry e;
  e.key = key;
  e.fast_rate = events / time_best(reps, [&] {
    const auto c = trace::compare(a, b);
    if (c.matched_events != fast_cmp.matched_events) std::abort();
  });
  e.ref_rate = events / time_best(reps, [&] {
    const auto c = trace::compare_reference(a, b);
    if (c.matched_events != fast_cmp.matched_events) std::abort();
  });
  std::printf("  %-22s %12.0f ev/s fast %12.0f ev/s ref  %6.2fx (%zu vs %zu "
              "events)\n",
              e.key.c_str(), e.fast_rate, e.ref_rate, e.speedup(), a.size(),
              b.size());
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(argc, argv);
  const std::string out_path = cli.get("out", "BENCH_sim.json");
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 5));
  const std::int64_t sim_n = cli.get_int("sim-n", 20000);
  const std::int64_t sim_n17 = std::max<std::int64_t>(400, sim_n / 5);
  const std::int64_t grid_n = cli.get_int("grid-n", 600);
  const experiments::Setup setup = bench::setup_from_cli(cli);

  bench::print_header(
      "BENCH sim",
      "devirtualized engine, fast trace compare, and parallel experiment\n"
      "grids versus the retained reference implementations");

  std::vector<Entry> entries;

  // --- simulate: fast engine vs reference engine -------------------------
  std::printf("simulate (lfk3 n=%lld DOACROSS, lfk17 n=%lld)\n",
              static_cast<long long>(sim_n), static_cast<long long>(sim_n17));
  const sim::NullInstrumentation null_hook;
  const auto full_plan =
      experiments::make_plan(experiments::PlanKind::kFull, setup);
  const auto lfk3 = loops::make_concurrent_ir(3, sim_n);
  const auto lfk17 = loops::make_concurrent_ir(17, sim_n17);
  entries.push_back(bench_simulate("simulate_null_lfk3", setup.machine, lfk3,
                                   null_hook, reps));
  entries.push_back(bench_simulate("simulate_full_lfk3", setup.machine, lfk3,
                                   full_plan, reps));
  entries.push_back(bench_simulate("simulate_null_lfk17", setup.machine,
                                   lfk17, null_hook, reps));
  entries.push_back(bench_simulate("simulate_full_lfk17", setup.machine,
                                   lfk17, full_plan, reps));

  // --- trace compare: both matchers vs the ordered-map reference ---------
  {
    const auto measured =
        sim::simulate(setup.machine, lfk17, full_plan, "cmp/measured");
    const auto actual =
        sim::simulate_actual(setup.machine, lfk17, "cmp/actual");
    std::printf("\ntrace compare\n");
    entries.push_back(
        bench_compare("trace_compare", measured, actual, false, reps));

    // A pareto-family approximation differs from its actual run in
    // identity, so compare answers it with the hash matcher.
    workload::WorkloadSpec spec;
    spec.family = workload::Family::kPareto;
    spec.seed = 7;
    spec.params = workload::default_params(spec.family);
    spec.params.trip = sim_n;
    experiments::Scenario cell;
    cell.setup = setup;
    cell.plan = experiments::PlanKind::kFull;
    cell.workload = spec;
    const auto run = experiments::run_scenario(cell);
    entries.push_back(bench_compare("trace_compare_fallback",
                                    run.event_based.approx, run.actual, true,
                                    reps));
  }

  // --- grid: parallel memoized driver vs serial reference driver ---------
  {
    std::vector<experiments::Scenario> grid;
    for (const int loop : {3, 17}) {
      for (const std::uint32_t procs : {1u, 2u, 4u, 8u, 12u, 16u}) {
        experiments::Setup cell_setup = setup;
        cell_setup.machine.num_procs = procs;
        grid.push_back(bench::concurrent_scenario(
            loop, grid_n, cell_setup, experiments::PlanKind::kFull));
      }
    }
    const auto ref_runs = experiments::run_grid_reference(grid);
    const auto fast_runs =
        experiments::run_grid(grid, {.threads = 2});
    PERTURB_CHECK_MSG(ref_runs.size() == fast_runs.size(),
                      "grid result count mismatch");
    for (std::size_t i = 0; i < grid.size(); ++i)
      PERTURB_CHECK_MSG(runs_equal(fast_runs[i], ref_runs[i]),
                        "grid cell differs between run_grid and the "
                        "reference driver");

    const double cells = static_cast<double>(grid.size());
    const double ref_s = time_best(reps, [&] {
      if (experiments::run_grid_reference(grid).size() != grid.size())
        std::abort();
    });
    const double at1_s = time_best(reps, [&] {
      if (experiments::run_grid(grid, {.threads = 1}).size() != grid.size())
        std::abort();
    });
    const double at8_s = time_best(reps, [&] {
      if (experiments::run_grid(grid, {.threads = 8}).size() != grid.size())
        std::abort();
    });
    Entry at1{"grid_1thread", cells / at1_s, cells / ref_s};
    Entry at8{"grid_8thread", cells / at8_s, cells / ref_s};
    std::printf(
        "\ngrid (%zu cells, machine-size ablation, n=%lld)\n"
        "  reference %7.1f ms   1 thread %7.1f ms (%.2fx)   8 threads "
        "%7.1f ms (%.2fx)\n",
        grid.size(), static_cast<long long>(grid_n), ref_s * 1e3, at1_s * 1e3,
        at1.speedup(), at8_s * 1e3, at8.speedup());
    entries.push_back(at1);
    entries.push_back(at8);
  }

  // --- JSON -------------------------------------------------------------
  std::string json = "{\n  \"bench\": \"sim\",\n";
  json += support::strf(
      "  \"sim_n\": %lld,\n  \"grid_n\": %lld,\n  \"rates\": {",
      static_cast<long long>(sim_n), static_cast<long long>(grid_n));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i) json += ", ";
    json += support::strf("\"%s_fast\": %.1f, \"%s_reference\": %.1f",
                          entries[i].key.c_str(), entries[i].fast_rate,
                          entries[i].key.c_str(), entries[i].ref_rate);
  }
  json += "},\n  \"speedups\": {";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i) json += ", ";
    json += support::strf("\"%s\": %.3f", entries[i].key.c_str(),
                          entries[i].speedup());
  }
  // The bars this PR was built to clear: 2x simulation rate on the
  // DOACROSS acceptance workload, 3x grid wall-clock at 8 threads.
  json += "},\n  \"floors\": {\"simulate_null_lfk3\": 2.0, "
          "\"grid_8thread\": 3.0}\n}\n";

  std::string werr;
  PERTURB_CHECK_MSG(support::write_file_atomic(out_path, json, &werr),
                    "cannot write bench output file");
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
