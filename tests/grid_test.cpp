// Tests for experiments::run_grid: bit-identical results at any thread
// count, with memoization on or off, against the serial per-scenario
// drivers — including under repair modes, fault injection, and file-based
// measured traces — plus equivalence of run_grid_reference.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiments/grid.hpp"
#include "loops/programs.hpp"
#include "trace/faults.hpp"
#include "trace/io.hpp"

namespace perturb::experiments {
namespace {

using trace::Event;
using trace::Trace;

bool same_event(const Event& x, const Event& y) {
  return x.time == y.time && x.payload == y.payload && x.id == y.id &&
         x.object == y.object && x.proc == y.proc && x.kind == y.kind;
}

void expect_traces_identical(const Trace& a, const Trace& b,
                             const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(same_event(a.events()[i], b.events()[i]))
        << label << " event " << i;
}

void expect_quality_identical(const core::ApproximationQuality& a,
                              const core::ApproximationQuality& b,
                              const std::string& label) {
  EXPECT_EQ(a.measured_over_actual, b.measured_over_actual) << label;
  EXPECT_EQ(a.approx_over_actual, b.approx_over_actual) << label;
  EXPECT_EQ(a.percent_error, b.percent_error) << label;
  EXPECT_EQ(a.mean_abs_event_error, b.mean_abs_event_error) << label;
  EXPECT_EQ(a.rms_event_error, b.rms_event_error) << label;
  EXPECT_EQ(a.p50_event_error, b.p50_event_error) << label;
  EXPECT_EQ(a.p95_event_error, b.p95_event_error) << label;
  EXPECT_EQ(a.matched_events, b.matched_events) << label;
  EXPECT_EQ(a.degraded_input, b.degraded_input) << label;
}

void expect_runs_identical(const LoopRun& a, const LoopRun& b,
                           const std::string& label) {
  expect_traces_identical(a.actual, b.actual, label + "/actual");
  expect_traces_identical(a.measured, b.measured, label + "/measured");
  expect_traces_identical(a.time_based, b.time_based, label + "/tb");
  expect_traces_identical(a.event_based.approx, b.event_based.approx,
                          label + "/eb");
  expect_quality_identical(a.tb_quality, b.tb_quality, label + "/tbq");
  expect_quality_identical(a.eb_quality, b.eb_quality, label + "/ebq");
}

Scenario concurrent(int loop, std::int64_t n, PlanKind plan,
                    std::uint32_t procs = 8) {
  Scenario s;
  s.loop = loop;
  s.n = n;
  s.mode = ExecMode::kConcurrent;
  s.setup.machine.num_procs = procs;
  s.plan = plan;
  return s;
}

/// A mixed grid: shared actuals (same loop under different plans), distinct
/// machines, all three execution modes.
std::vector<Scenario> mixed_grid() {
  std::vector<Scenario> grid;
  grid.push_back(concurrent(3, 120, PlanKind::kFull));
  grid.push_back(concurrent(3, 120, PlanKind::kStatementsOnly));
  grid.push_back(concurrent(3, 120, PlanKind::kSyncOnly));
  grid.push_back(concurrent(17, 100, PlanKind::kFull));
  grid.push_back(concurrent(17, 100, PlanKind::kFull, 4));
  Scenario seq;
  seq.loop = 7;
  seq.n = 150;
  seq.mode = ExecMode::kSequential;
  grid.push_back(seq);
  Scenario vec;
  vec.loop = 12;
  vec.n = 150;
  vec.mode = ExecMode::kVector;
  grid.push_back(vec);
  Scenario self_sched = concurrent(4, 120, PlanKind::kFull);
  self_sched.schedule = sim::Schedule::kSelf;
  grid.push_back(self_sched);
  return grid;
}

TEST(Grid, MatchesSerialScenarioLoop) {
  const auto grid = mixed_grid();
  const auto runs = run_grid(grid, {.threads = 1});
  ASSERT_EQ(runs.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    expect_runs_identical(runs[i], run_scenario(grid[i]),
                          "cell " + std::to_string(i));
}

TEST(Grid, MatchesSerialExperimentDrivers) {
  const Scenario s = concurrent(17, 100, PlanKind::kFull);
  const auto grid_run = run_grid({s}, {})[0];
  experiments::Setup setup;
  setup.machine.num_procs = 8;
  const auto serial_run =
      run_concurrent_experiment(17, 100, setup, PlanKind::kFull);
  expect_runs_identical(grid_run, serial_run, "vs run_concurrent_experiment");
}

TEST(Grid, ThreadCountInvariant) {
  const auto grid = mixed_grid();
  const auto at1 = run_grid(grid, {.threads = 1});
  const auto at2 = run_grid(grid, {.threads = 2});
  const auto at8 = run_grid(grid, {.threads = 8});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    expect_runs_identical(at1[i], at2[i], "1v2 cell " + std::to_string(i));
    expect_runs_identical(at1[i], at8[i], "1v8 cell " + std::to_string(i));
  }
}

TEST(Grid, MemoizationInvariant) {
  // run_grid shares one actual run across matching cells; run_scenario
  // never does, so memoized cells must equal unmemoized ones.
  const auto grid = mixed_grid();
  const auto memo = run_grid(grid, {.threads = 2});
  ASSERT_EQ(memo.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    expect_runs_identical(memo[i], run_scenario(grid[i]),
                          "cell " + std::to_string(i));
}

TEST(Grid, RepairModesWithFaultInjection) {
  std::vector<Scenario> grid;
  for (const auto repair :
       {core::RepairMode::kConservative, core::RepairMode::kAggressive}) {
    Scenario skewed = concurrent(3, 120, PlanKind::kFull);
    skewed.repair = repair;
    skewed.mutate_measured = [](Trace& t) {
      t = trace::skew_timestamps(t, 40, 0.3, 11);
    };
    grid.push_back(skewed);
    Scenario dropped = concurrent(17, 100, PlanKind::kFull);
    dropped.repair = repair;
    dropped.mutate_measured = [](Trace& t) {
      t = trace::drop_events(t, trace::EventKind::kAdvance, 3, 5);
    };
    grid.push_back(dropped);
  }
  const auto at1 = run_grid(grid, {.threads = 1});
  const auto at8 = run_grid(grid, {.threads = 8});
  ASSERT_EQ(at1.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    expect_runs_identical(at1[i], run_scenario(grid[i]),
                          "serial cell " + std::to_string(i));
    expect_runs_identical(at1[i], at8[i], "1v8 cell " + std::to_string(i));
  }
}

TEST(Grid, MeasuredFromFileMatchesSimulated) {
  const Scenario simulated = concurrent(3, 120, PlanKind::kFull);
  // Capture the exact measured trace the simulating scenario would produce,
  // write it to disk, and feed it back through the file path.
  const auto plan = make_plan(simulated.plan, simulated.setup);
  const auto program = loops::make_concurrent_ir(simulated.loop, simulated.n);
  const auto measured = sim::simulate(simulated.setup.machine, program, plan,
                                      scenario_name(simulated) + "/measured");
  const std::string path =
      testing::TempDir() + "grid_test_measured.perturb";
  trace::save(path, measured);

  Scenario from_file = simulated;
  from_file.measured_path = path;
  const auto runs = run_grid({simulated, from_file}, {.threads = 2});
  expect_runs_identical(runs[0], runs[1], "file vs simulated");
}

TEST(Grid, ReferenceDriverIdentical) {
  std::vector<Scenario> grid;
  grid.push_back(concurrent(3, 120, PlanKind::kFull));
  grid.push_back(concurrent(17, 100, PlanKind::kStatementsOnly));
  const auto fast = run_grid(grid, {.threads = 2});
  const auto ref = run_grid_reference(grid);
  ASSERT_EQ(ref.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    expect_runs_identical(fast[i], ref[i], "cell " + std::to_string(i));
}

TEST(Grid, EmptyGrid) {
  EXPECT_TRUE(run_grid({}, {.threads = 4}).empty());
}

}  // namespace
}  // namespace perturb::experiments
