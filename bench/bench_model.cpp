// bench_model — analytical screening of experiment grids (DESIGN.md §12).
//
// Three sections, each gated before any timing is trusted:
//
//   * equivalence: run_grid_screened over the 12-cell acceptance grid must
//     produce the designed confident/fall-through partition, fall-through
//     cells bit-identical to run_grid over the full list, and identical
//     results at 1 and 8 worker threads;
//   * accuracy: on every model-confident cell the analytical prediction of
//     the uninstrumented run must sit within kConfidentErrorBound of the
//     event-based reconstruction it replaces;
//   * cross-validation: the full Livermore grid (24 loops x 3 modes x 2
//     plans) is run both ways and every cell's (uncertainty, relative
//     error) pair is written to MODEL_crossval.json — the calibration
//     evidence behind experiments::kDefaultScreenThreshold.
//
// Timing then gates two properties, each a ratio of times in the same
// process, so comparable across hosts (absolute rates are not):
//
//   * screen_12cell_overhead: run_grid over the 12-cell grid's three
//     fall-through cells alone, divided by run_grid_screened over the whole
//     grid — what screening adds on top of the work it cannot skip
//     (floor 0.8: at most 25% extra).  The whole-grid unscreened/screened
//     ratio it replaced as the gate is still printed and written, unfloored,
//     since it falls whenever per-cell analysis gets cheaper;
//   * screen_confident_sweep: run_grid over an all-confident DOALL sweep
//     divided by run_grid_screened over it (the near-O(1) case, >=10x).
// Results go to JSON (--out, default BENCH_model.json); tools/check_bench.py
// gates CI runs against bench/baseline/BENCH_model.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "support/check.hpp"
#include "support/fsio.hpp"
#include "support/text.hpp"

namespace {

using namespace perturb;
using Clock = std::chrono::steady_clock;

/// Largest model relative error tolerated on a confident cell, measured
/// against the better of the two references available in-process: the
/// event-based reconstruction the screen replaces, and the simulated actual
/// run.  Both matter: against eb alone the gate would be dominated by the
/// reconstruction's own fixed boundary-probe residual (~100 ticks, a large
/// *relative* error on cheap short loops where the model is in fact exact);
/// against actual alone it would not demonstrate consistency with the
/// pipeline.  The cross-validation sweep writes both errors per cell.
constexpr double kConfidentErrorBound = 0.08;

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

/// Median of `reps` runs of each body, alternating between them so a slow
/// spell on a shared host lands on both sides of their ratio.
template <typename FnA, typename FnB>
std::pair<double, double> time_median_interleaved(std::size_t reps, FnA&& a,
                                                  FnB&& b) {
  std::vector<double> ta, tb;
  for (std::size_t r = 0; r < reps; ++r) {
    auto start = Clock::now();
    a();
    ta.push_back(seconds_since(start));
    start = Clock::now();
    b();
    tb.push_back(seconds_since(start));
  }
  const auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(v.size() / 2),
                     v.end());
    return v[v.size() / 2];
  };
  return {median(ta), median(tb)};
}

bool traces_equal(const trace::Trace& a, const trace::Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i] == b[i])) return false;
  return true;
}

bool runs_equal(const experiments::LoopRun& a, const experiments::LoopRun& b) {
  return traces_equal(a.actual, b.actual) &&
         traces_equal(a.measured, b.measured) &&
         traces_equal(a.time_based, b.time_based) &&
         traces_equal(a.event_based.approx, b.event_based.approx) &&
         a.tb_quality.percent_error == b.tb_quality.percent_error &&
         a.eb_quality.percent_error == b.eb_quality.percent_error;
}

double rel_error(trace::Tick predicted, trace::Tick reference) {
  if (reference <= 0) return 0.0;
  return std::abs(static_cast<double>(predicted - reference)) /
         static_cast<double>(reference);
}

/// Model error against the better reference (see kConfidentErrorBound).
double model_error(trace::Tick predicted, const experiments::LoopRun& run) {
  return std::min(
      rel_error(predicted, run.event_based.approx.total_time()),
      rel_error(predicted, run.actual.total_time()));
}

const char* plan_name(experiments::PlanKind plan) {
  switch (plan) {
    case experiments::PlanKind::kStatementsOnly: return "stmt";
    case experiments::PlanKind::kSyncOnly: return "sync";
    case experiments::PlanKind::kFull: return "full";
  }
  return "?";
}

/// The 12-cell acceptance grid: nine cells the model screens (DOALL loops
/// under full instrumentation, the distance-1 chains of loops 3 and 4 under
/// statement-only probes — slack in the chain — and sequential shapes
/// including loop 17's data-dependent statements) and three it must not:
/// loops 3 and 4 under full instrumentation (the chain nears saturation,
/// the paper's Table 1 under-approximation cells) and a self-scheduled
/// cell (dispatch order depends on jittered probe costs, opaque to the
/// closed form).
std::vector<experiments::Scenario> acceptance_grid(
    std::int64_t n, const experiments::Setup& setup) {
  using experiments::PlanKind;
  std::vector<experiments::Scenario> grid;
  grid.push_back(
      bench::concurrent_scenario(3, n, setup, PlanKind::kStatementsOnly));
  grid.push_back(
      bench::concurrent_scenario(4, n, setup, PlanKind::kStatementsOnly));
  grid.push_back(bench::concurrent_scenario(8, n, setup, PlanKind::kFull));
  grid.push_back(bench::concurrent_scenario(13, n, setup, PlanKind::kFull));
  grid.push_back(bench::concurrent_scenario(14, n, setup, PlanKind::kFull));
  grid.push_back(bench::concurrent_scenario(18, n, setup, PlanKind::kFull));
  grid.push_back(bench::sequential_scenario(17, n, setup));
  grid.push_back(
      bench::sequential_scenario(17, n, setup, experiments::PlanKind::kFull));
  grid.push_back(
      bench::sequential_scenario(20, n, setup, experiments::PlanKind::kFull));
  // Fall-through by design:
  grid.push_back(bench::concurrent_scenario(3, n, setup, PlanKind::kFull));
  grid.push_back(bench::concurrent_scenario(4, n, setup, PlanKind::kFull));
  grid.push_back(bench::concurrent_scenario(1, n, setup, PlanKind::kFull,
                                            sim::Schedule::kSelf));
  return grid;
}

constexpr std::size_t kExpectedConfident = 9;
constexpr std::size_t kOverheadReps = 50;

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(argc, argv);
  const std::string out_path = cli.get("out", "BENCH_model.json");
  const std::string crossval_path =
      cli.get("crossval-out", "MODEL_crossval.json");
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 5));
  const std::int64_t n = cli.get_int("n", 600);
  const std::int64_t crossval_n = cli.get_int("crossval-n", 300);
  const auto threads = static_cast<std::size_t>(cli.get_int("threads", 2));
  const experiments::Setup setup = bench::setup_from_cli(cli);

  bench::print_header(
      "BENCH model",
      "analytical screening of experiment grids versus full\n"
      "simulate+reconstruct (DESIGN.md §12)");

  const auto grid = acceptance_grid(n, setup);
  const experiments::GridOptions grid_options{.threads = threads};
  experiments::ScreenOptions screen_options;
  screen_options.grid = grid_options;

  // --- equivalence gates -------------------------------------------------
  const auto unscreened = experiments::run_grid(grid, grid_options);
  const auto screened = experiments::run_grid_screened(grid, screen_options);
  PERTURB_CHECK_MSG(screened.confident == kExpectedConfident &&
                        screened.fallthrough == grid.size() - kExpectedConfident,
                    "screening partition differs from the designed grid");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const bool expect_screened = i < kExpectedConfident;
    PERTURB_CHECK_MSG(screened.cells[i].screened == expect_screened,
                      "cell screened-state differs from the designed grid");
    if (!screened.cells[i].screened)
      PERTURB_CHECK_MSG(runs_equal(screened.cells[i].run, unscreened[i]),
                        "fall-through cell differs from the unscreened grid");
  }
  for (const std::size_t alt_threads : {std::size_t{1}, std::size_t{8}}) {
    experiments::ScreenOptions alt = screen_options;
    alt.grid.threads = alt_threads;
    const auto again = experiments::run_grid_screened(grid, alt);
    PERTURB_CHECK_MSG(again.confident == screened.confident &&
                          again.fallthrough == screened.fallthrough,
                      "screening partition varies with thread count");
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto& a = again.cells[i];
      const auto& b = screened.cells[i];
      PERTURB_CHECK_MSG(
          a.screened == b.screened &&
              a.prediction.actual.total == b.prediction.actual.total &&
              a.prediction.measured.total == b.prediction.measured.total &&
              a.prediction.uncertainty == b.prediction.uncertainty,
          "cell prediction varies with thread count");
      if (!a.screened)
        PERTURB_CHECK_MSG(runs_equal(a.run, b.run),
                          "fall-through run varies with thread count");
    }
  }
  std::printf("equivalence: partition %zu confident / %zu fall-through, "
              "bit-identical at 1/2/8 threads\n",
              screened.confident, screened.fallthrough);

  // --- accuracy gate ------------------------------------------------------
  double confident_max_err = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!screened.cells[i].screened) continue;
    const double err =
        model_error(screened.cells[i].prediction.actual.total, unscreened[i]);
    confident_max_err = std::max(confident_max_err, err);
    PERTURB_CHECK_MSG(
        err <= kConfidentErrorBound,
        support::strf("confident cell %s-%s exceeds the model accuracy "
                      "bound: rel error %.4f",
                      experiments::scenario_name(grid[i]).c_str(),
                      plan_name(grid[i].plan), err));
  }
  std::printf("accuracy: confident-cell max rel error %.4f (bound %.2f)\n",
              confident_max_err, kConfidentErrorBound);

  // --- cross-validation: the full Livermore grid --------------------------
  std::string crossval = support::strf(
      "{\n  \"report\": \"model_crossval\",\n  \"n\": %lld,\n"
      "  \"threshold\": %.2f,\n  \"error_bound\": %.2f,\n  \"cells\": [\n",
      static_cast<long long>(crossval_n),
      experiments::kDefaultScreenThreshold, kConfidentErrorBound);
  double cv_confident_max_err = 0.0;
  double cv_uncertain_min_u = 1.0;
  std::size_t cv_confident = 0, cv_rows = 0;
  bool cv_separated = true;
  {
    std::vector<experiments::Scenario> cells;
    for (int k = 1; k <= 24; ++k) {
      for (const auto plan : {experiments::PlanKind::kStatementsOnly,
                              experiments::PlanKind::kFull}) {
        cells.push_back(bench::sequential_scenario(k, crossval_n, setup, plan));
        cells.push_back(bench::concurrent_scenario(k, crossval_n, setup, plan));
        cells.push_back(bench::vector_scenario(k, crossval_n, setup, plan));
      }
    }
    const auto runs = experiments::run_grid(cells, grid_options);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto prediction = experiments::predict_scenario(cells[i]);
      const auto eb = runs[i].event_based.approx.total_time();
      const auto actual = runs[i].actual.total_time();
      const double err = model_error(prediction.actual.total, runs[i]);
      const bool confident =
          prediction.uncertainty <= experiments::kDefaultScreenThreshold;
      if (confident) {
        ++cv_confident;
        cv_confident_max_err = std::max(cv_confident_max_err, err);
      } else {
        cv_uncertain_min_u =
            std::min(cv_uncertain_min_u, prediction.uncertainty);
      }
      // The calibration claim: no confident cell may exceed the bound.
      if (confident && err > kConfidentErrorBound) cv_separated = false;
      if (cv_rows++) crossval += ",\n";
      crossval += support::strf(
          "    {\"cell\": \"%s-%s\", \"uncertainty\": %.3f, "
          "\"predicted\": %lld, \"event_based\": %lld, \"actual\": %lld, "
          "\"rel_error_eb\": %.4f, \"rel_error_actual\": %.4f, "
          "\"confident\": %s}",
          experiments::scenario_name(cells[i]).c_str(),
          plan_name(cells[i].plan), prediction.uncertainty,
          static_cast<long long>(prediction.actual.total),
          static_cast<long long>(eb), static_cast<long long>(actual),
          rel_error(prediction.actual.total, eb),
          rel_error(prediction.actual.total, actual),
          confident ? "true" : "false");
    }
    crossval += support::strf(
        "\n  ],\n  \"summary\": {\"cells\": %zu, \"confident\": %zu, "
        "\"fallthrough\": %zu, \"confident_max_rel_error\": %.4f, "
        "\"fallthrough_min_uncertainty\": %.3f, \"separated\": %s}\n}\n",
        cells.size(), cv_confident, cells.size() - cv_confident,
        cv_confident_max_err, cv_uncertain_min_u,
        cv_separated ? "true" : "false");
    PERTURB_CHECK_MSG(cv_separated,
                      "cross-validation: a confident cell exceeds the "
                      "accuracy bound (threshold miscalibrated)");
    std::printf(
        "cross-validation: %zu cells, %zu confident (max rel error %.4f), "
        "%zu fall-through (min uncertainty %.3f)\n",
        cells.size(), cv_confident, cv_confident_max_err,
        cells.size() - cv_confident, cv_uncertain_min_u);
  }

  // --- timing -------------------------------------------------------------
  const double cells12 = static_cast<double>(grid.size());
  const double unscreened_s = time_best(reps, [&] {
    if (experiments::run_grid(grid, grid_options).size() != grid.size())
      std::abort();
  });
  const auto run_screened = [&] {
    if (experiments::run_grid_screened(grid, screen_options).cells.size() !=
        grid.size())
      std::abort();
  };
  const double screened_s = time_best(reps, run_screened);
  const double speedup12 = screened_s > 0.0 ? unscreened_s / screened_s : 0.0;

  // Screening overhead: the whole grid screened against its fall-through
  // cells alone.  Three cells on two workers finish fast or slow depending
  // on which worker takes which cell, so the fastest run of either side is
  // a rare lucky one; the medians of interleaved runs hold still.
  std::vector<experiments::Scenario> fallthrough_cells;
  for (std::size_t i = 0; i < grid.size(); ++i)
    if (!screened.cells[i].screened) fallthrough_cells.push_back(grid[i]);
  const auto run_fallthrough = [&] {
    if (experiments::run_grid(fallthrough_cells, grid_options).size() !=
        fallthrough_cells.size())
      std::abort();
  };
  const auto [screened_median_s, fallthrough_median_s] =
      time_median_interleaved(std::max(reps, kOverheadReps), run_screened,
                              run_fallthrough);
  const double overhead12 = screened_median_s > 0.0
                                ? fallthrough_median_s / screened_median_s
                                : 0.0;

  // All-confident sweep: DOALL loops across plans — the model answers every
  // cell, so the screened sweep does no simulation at all.
  std::vector<experiments::Scenario> confident_sweep;
  for (const int loop : {1, 7, 8, 9, 10, 12, 13, 14})
    for (const auto plan : {experiments::PlanKind::kStatementsOnly,
                            experiments::PlanKind::kFull})
      confident_sweep.push_back(
          bench::concurrent_scenario(loop, n, setup, plan));
  {
    const auto check = experiments::run_grid_screened(confident_sweep,
                                                      screen_options);
    PERTURB_CHECK_MSG(check.fallthrough == 0,
                      "confident sweep unexpectedly fell through");
  }
  const double sweep_cells = static_cast<double>(confident_sweep.size());
  const double sweep_unscreened_s = time_best(reps, [&] {
    if (experiments::run_grid(confident_sweep, grid_options).size() !=
        confident_sweep.size())
      std::abort();
  });
  const double sweep_screened_s = time_best(reps, [&] {
    if (experiments::run_grid_screened(confident_sweep, screen_options)
            .cells.size() != confident_sweep.size())
      std::abort();
  });
  const double sweep_speedup =
      sweep_screened_s > 0.0 ? sweep_unscreened_s / sweep_screened_s : 0.0;

  std::printf(
      "\ntiming (n=%lld, %zu reps, %zu threads)\n"
      "  12-cell grid      unscreened %8.1f ms   screened %8.1f ms  %7.2fx\n"
      "  overhead (median) fall-through only %6.1f ms   screened %8.1f ms  "
      "%7.3f\n"
      "  confident sweep   unscreened %8.1f ms   screened %8.3f ms  %7.2fx "
      "(%zu cells)\n",
      static_cast<long long>(n), reps, threads, unscreened_s * 1e3,
      screened_s * 1e3, speedup12, fallthrough_median_s * 1e3,
      screened_median_s * 1e3, overhead12, sweep_unscreened_s * 1e3,
      sweep_screened_s * 1e3, sweep_speedup, confident_sweep.size());

  // --- JSON ---------------------------------------------------------------
  std::string json = support::strf(
      "{\n  \"bench\": \"model\",\n  \"n\": %lld,\n  \"crossval_n\": %lld,\n"
      "  \"rates\": {\"screen_12cell_screened\": %.1f, "
      "\"screen_12cell_unscreened\": %.1f, "
      "\"screen_12cell_fallthrough_only\": %.1f, "
      "\"screen_confident_sweep_screened\": %.1f, "
      "\"screen_confident_sweep_unscreened\": %.1f},\n"
      "  \"screen\": {\"confident\": %zu, \"fallthrough\": %zu},\n"
      "  \"accuracy\": {\"confident_max_rel_error\": %.4f, "
      "\"crossval_confident_max_rel_error\": %.4f, "
      "\"crossval_fallthrough_min_uncertainty\": %.3f},\n",
      static_cast<long long>(n), static_cast<long long>(crossval_n),
      cells12 / screened_s, cells12 / unscreened_s,
      static_cast<double>(fallthrough_cells.size()) / fallthrough_median_s,
      sweep_cells / sweep_screened_s, sweep_cells / sweep_unscreened_s,
      screened.confident, screened.fallthrough, confident_max_err,
      cv_confident_max_err, cv_uncertain_min_u);
  json += support::strf(
      "  \"unfloored\": {\"screen_12cell\": %.3f},\n"
      "  \"speedups\": {\"screen_12cell_overhead\": %.3f, "
      "\"screen_confident_sweep\": %.3f},\n",
      speedup12, overhead12, sweep_speedup);
  // Screening may add at most 25% over the fall-through work it cannot
  // skip, and must gain an order of magnitude when it screens every cell.
  json += "  \"floors\": {\"screen_12cell_overhead\": 0.8, "
          "\"screen_confident_sweep\": 10.0}\n}\n";

  std::string werr;
  PERTURB_CHECK_MSG(support::write_file_atomic(out_path, json, &werr),
                    "cannot write bench output file");
  PERTURB_CHECK_MSG(support::write_file_atomic(crossval_path, crossval, &werr),
                    "cannot write cross-validation report");
  std::printf("\nwrote %s and %s\n", out_path.c_str(), crossval_path.c_str());
  return 0;
}
