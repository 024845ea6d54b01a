// Tests for seeded scenario synthesis (src/workload): descriptor parsing,
// bit-reproducibility of synthesized programs and full pipeline runs at any
// thread count, memo-key soundness in the experiment grid, interference-hook
// determinism, and analytic screening over workload cells.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "experiments/experiments.hpp"
#include "experiments/grid.hpp"
#include "instr/plan.hpp"
#include "sim/engine.hpp"
#include "sim/hooks.hpp"
#include "sim/ir.hpp"
#include "trace/event.hpp"
#include "workload/workload.hpp"

namespace perturb::workload {
namespace {

WorkloadSpec spec_of(Family f, std::uint64_t seed) {
  WorkloadSpec s;
  s.family = f;
  s.seed = seed;
  s.params = default_params(f);
  s.params.trip = 200;  // keep the suite fast; structure is trip-independent
  return s;
}

const std::vector<Family>& all_families() {
  static const std::vector<Family> fams = {
      Family::kPareto, Family::kLognormal, Family::kContention,
      Family::kIrregular, Family::kBursty};
  return fams;
}

experiments::Scenario cell_of(const WorkloadSpec& spec) {
  experiments::Scenario s;
  s.plan = experiments::PlanKind::kFull;
  s.workload = spec;
  return s;
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
         traces_equal(a.event_based.approx, b.event_based.approx) &&
         a.eb_quality.percent_error == b.eb_quality.percent_error;
}

TEST(ParseWorkload, AcceptsFamilySeedAndKnobs) {
  std::string error;
  const auto plain = parse_workload("pareto:7", &error);
  ASSERT_TRUE(plain.has_value()) << error;
  EXPECT_EQ(plain->family, Family::kPareto);
  EXPECT_EQ(plain->seed, 7u);
  EXPECT_EQ(plain->params.trip, default_params(Family::kPareto).trip);

  const auto knobbed = parse_workload(
      "contention:12:trip=128,stmts=6,crit=0.4,sem=0.1,cap=3,sched=block",
      &error);
  ASSERT_TRUE(knobbed.has_value()) << error;
  EXPECT_EQ(knobbed->family, Family::kContention);
  EXPECT_EQ(knobbed->seed, 12u);
  EXPECT_EQ(knobbed->params.trip, 128);
  EXPECT_EQ(knobbed->params.statements, 6);
  EXPECT_DOUBLE_EQ(knobbed->params.critical_density, 0.4);
  EXPECT_DOUBLE_EQ(knobbed->params.sem_density, 0.1);
  EXPECT_EQ(knobbed->params.sem_capacity, 3);
  EXPECT_EQ(knobbed->params.schedule, sim::Schedule::kBlock);
}

TEST(ParseWorkload, RejectsMalformedDescriptors) {
  for (const char* bad :
       {"", "pareto", "zipf:1", "pareto:notaseed", "pareto:-1", "pareto:1:",
        "pareto:1:alpha", "pareto:1:alpha=", "pareto:1:alpha=0.5",
        "pareto:1:alpha=banana", "pareto:1:tailiness=2", "pareto:1:trip=0",
        "pareto:1:trip=9999999999", "bursty:1:burst=1.5",
        "irregular:1:phases=99", "pareto:1:sched=fifo"}) {
    std::string error;
    EXPECT_FALSE(parse_workload(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ParseWorkload, RoundTripsThroughWorkloadKey) {
  // Parsing a descriptor and re-rendering its key is stable, and any knob
  // change produces a distinct key (the grid memoization contract).
  std::string error;
  std::set<std::string> keys;
  for (const char* text :
       {"pareto:1", "pareto:2", "lognormal:1", "pareto:1:alpha=2.0",
        "pareto:1:trip=100", "pareto:1:chain=0.5", "bursty:1",
        "bursty:1:burstcy=999", "contention:1:crit=0.3",
        "contention:1:sem=0.3", "irregular:1:phases=4"}) {
    const auto spec = parse_workload(text, &error);
    ASSERT_TRUE(spec.has_value()) << text << ": " << error;
    const auto [it, inserted] = keys.insert(workload_key(*spec));
    EXPECT_TRUE(inserted) << "key collision for " << text << ": " << *it;
  }
}

TEST(Synthesis, ProgramIsAPureFunctionOfTheSpec) {
  for (const Family f : all_families()) {
    const auto spec = spec_of(f, 42);
    const sim::Program a = make_program(spec);
    const sim::Program b = make_program(spec);
    // Structural equality via the engine: identical programs produce
    // identical traces under identical machines.
    sim::MachineConfig machine;
    machine.num_procs = 4;
    const auto ta =
        sim::simulate(machine, a, sim::NullInstrumentation(), "wl-a");
    const auto tb =
        sim::simulate(machine, b, sim::NullInstrumentation(), "wl-b");
    ASSERT_EQ(ta.size(), tb.size()) << family_name(f);
    for (std::size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].time, tb[i].time) << family_name(f);
      EXPECT_EQ(ta[i].kind, tb[i].kind) << family_name(f);
      EXPECT_EQ(ta[i].proc, tb[i].proc) << family_name(f);
    }
  }
}

TEST(Synthesis, SeedsChangeStructureAndFamiliesDiffer) {
  // Different seeds draw different programs (statement costs at minimum),
  // and the loop features reflect per-family structure.
  const auto base = synthesize_loop(spec_of(Family::kPareto, 1));
  const auto other = synthesize_loop(spec_of(Family::kPareto, 2));
  EXPECT_NE(workload_key(spec_of(Family::kPareto, 1)),
            workload_key(spec_of(Family::kPareto, 2)));
  bool any_diff = base.pre.size() != other.pre.size() ||
                  base.guarded.size() != other.guarded.size();
  for (std::size_t i = 0; !any_diff && i < base.pre.size() &&
                          i < other.pre.size(); ++i)
    any_diff = base.pre[i].cost != other.pre[i].cost;
  EXPECT_TRUE(any_diff);

  const auto contended = spec_of(Family::kContention, 1);
  const sim::Program p = make_program(contended);
  EXPECT_GT(p.num_locks() + p.num_semaphores(), 0u);
  const auto caps = semaphore_capacities(p);
  EXPECT_EQ(caps.size(), p.num_semaphores());
  for (const auto& [id, cap] : caps) {
    EXPECT_GE(id, 1u);  // object ids are 1-based
    EXPECT_EQ(cap, contended.params.sem_capacity);
  }
}

TEST(Synthesis, InterferenceHookIsDeterministicAndAdditive) {
  const auto spec = spec_of(Family::kBursty, 9);
  ASSERT_TRUE(has_interference(spec));
  EXPECT_FALSE(has_interference(spec_of(Family::kPareto, 9)));
  const experiments::Setup setup;
  const instr::InstrumentationPlan plan = instr::InstrumentationPlan::full(
      setup.stmt, setup.sync, setup.control, setup.seed);
  const InterferenceHook hook(plan, spec);
  for (const trace::EventKind k :
       {trace::EventKind::kStmtEnter, trace::EventKind::kAdvance}) {
    EXPECT_EQ(hook.records(k, 1), plan.records(k, 1));
    std::uint64_t bursty_windows = 0;
    for (std::uint64_t idx = 0; idx < 64 * 64; ++idx) {
      const auto inner = plan.probe_cost(k, 1, 0, idx);
      const auto outer = hook.probe_cost(k, 1, 0, idx);
      EXPECT_EQ(outer, hook.probe_cost(k, 1, 0, idx));  // pure function
      EXPECT_GE(outer, inner);
      if (outer > inner) {
        EXPECT_EQ(outer - inner, spec.params.burst_cycles);
        ++bursty_windows;
      }
    }
    // Bursts hit a nonzero fraction of windows, and not all of them.
    EXPECT_GT(bursty_windows, 0u);
    EXPECT_LT(bursty_windows, 64u * 64u);
  }
}

TEST(Grid, WorkloadCellsAreThreadCountAndMemoizationInvariant) {
  std::vector<experiments::Scenario> grid;
  for (const Family f : all_families()) grid.push_back(cell_of(spec_of(f, 5)));
  // Duplicate the first cell so memoization actually shares an actual run.
  grid.push_back(cell_of(spec_of(all_families().front(), 5)));

  std::vector<experiments::LoopRun> serial;
  for (const auto& s : grid) serial.push_back(experiments::run_scenario(s));

  // run_grid memoizes the duplicate's actual run; the serial loop does not.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    experiments::GridOptions options;
    options.threads = threads;
    const auto runs = experiments::run_grid(grid, options);
    ASSERT_EQ(runs.size(), serial.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
      EXPECT_TRUE(runs_equal(runs[i], serial[i]))
          << "cell " << i << " threads " << threads;
  }
  EXPECT_TRUE(runs_equal(serial.front(), serial.back()));  // duplicate cell
}

TEST(Grid, MemoKeysKeepDistinctWorkloadsApart) {
  // Two specs that differ in one knob must not share a memoized actual run:
  // same family/seed, different alpha, run in one memoizing grid.
  auto heavy = spec_of(Family::kPareto, 3);
  heavy.params.alpha = 1.2;
  auto light = spec_of(Family::kPareto, 3);
  light.params.alpha = 8.0;
  experiments::GridOptions options;
  options.threads = 2;
  const auto runs =
      experiments::run_grid({cell_of(heavy), cell_of(light)}, options);
  EXPECT_TRUE(
      runs_equal(runs[0], experiments::run_scenario(cell_of(heavy))));
  EXPECT_TRUE(
      runs_equal(runs[1], experiments::run_scenario(cell_of(light))));
  EXPECT_FALSE(traces_equal(runs[0].actual, runs[1].actual));
}

TEST(Grid, ScenarioNamesAndScreeningCoverWorkloads) {
  const auto cell = cell_of(spec_of(Family::kPareto, 7));
  EXPECT_EQ(experiments::scenario_name(cell), "wl-pareto-7");

  // Screening must never take the model's answer for an interference cell
  // (the hook is invisible to the closed form), and fall-through results
  // stay bit-identical to the unscreened grid.
  std::vector<experiments::Scenario> grid = {
      cell, cell_of(spec_of(Family::kBursty, 7))};
  const auto screened = experiments::run_grid_screened(grid);
  ASSERT_EQ(screened.cells.size(), grid.size());
  const auto& bursty_cell = screened.cells[1];
  EXPECT_EQ(bursty_cell.prediction.uncertainty, 1.0);
  EXPECT_FALSE(bursty_cell.screened);
  const auto unscreened = experiments::run_grid(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!screened.cells[i].screened) {
      EXPECT_TRUE(runs_equal(screened.cells[i].run, unscreened[i]));
    }
  }
}

}  // namespace
}  // namespace perturb::workload