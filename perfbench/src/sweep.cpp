// sweep — experiment grids built from scratch through
// experiments::run_grid_screened.
//
// One request is one program's grid: Livermore 3, 4 and 17 each in
// {sequential, concurrent} x {statements, sync, full} plans x {4, 8}
// processors, and the five workload families (pinned seeds) x {4, 8}
// processors.  The analytic model answers its confident cells without
// simulating; the rest fall through to simulate + analyze.  Set-up computes
// the reference outputs with run_grid on the fall-through cells; every pass
// must reproduce them.  The traced pass splits each request into the
// screen (model.predict per cell) and the fall-through grid, then probes the
// fall-through cells' layers (synthesis, simulation, analysis) one call at
// a time.
#include <cmath>
#include <cstdio>
#include <map>

#include <sys/stat.h>

#include "common.hpp"
#include "core/eventbased.hpp"
#include "core/quality.hpp"
#include "core/timebased.hpp"
#include "experiments/grid.hpp"
#include "loops/programs.hpp"
#include "sim/engine.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/text.hpp"
#include "trace/index.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using namespace perturb;
using experiments::Scenario;

constexpr int kSetupReps = 5;

struct Request {
  std::string name;
  std::vector<Scenario> cells;
};

std::vector<Request> sweep_requests(const Options& o) {
  const std::int64_t n = o.small ? 150 : 5000;
  std::vector<Request> requests;
  for (const int loop : {3, 4, 17}) {
    Request r;
    r.name = "lfk" + std::to_string(loop);
    for (const auto mode : {experiments::ExecMode::kSequential,
                            experiments::ExecMode::kConcurrent})
      for (const auto plan : {experiments::PlanKind::kStatementsOnly,
                              experiments::PlanKind::kSyncOnly,
                              experiments::PlanKind::kFull})
        for (const std::uint32_t procs : {4u, 8u}) {
          Scenario s;
          s.loop = loop;
          s.n = n;
          s.mode = mode;
          s.plan = plan;
          s.setup.seed = 1991 + o.seed;
          s.setup.machine.num_procs = procs;
          r.cells.push_back(s);
        }
    requests.push_back(r);
  }
  Request families;
  families.name = "families";
  for (const auto family :
       {workload::Family::kPareto, workload::Family::kLognormal,
        workload::Family::kContention, workload::Family::kIrregular,
        workload::Family::kBursty})
    for (const std::uint32_t procs : {4u, 8u}) {
      workload::WorkloadSpec spec;
      spec.family = family;
      spec.seed = 7;  // pinned: structure fixed, probe jitter follows --seed
      spec.params = workload::default_params(family);
      spec.params.trip = o.small ? 60 : 2000;
      Scenario s;
      s.workload = spec;
      s.plan = experiments::PlanKind::kFull;
      s.setup.seed = 1991 + o.seed;
      s.setup.machine.num_procs = procs;
      families.cells.push_back(s);
    }
  requests.push_back(families);
  return requests;
}

std::string cell_digest(const experiments::LoopRun& run) {
  return support::strf(
      "%016llx/%lld/%lld/%.17g",
      static_cast<unsigned long long>(trace_digest(run.event_based.approx)),
      static_cast<long long>(run.time_based.total_time()),
      static_cast<long long>(run.measured.total_time()),
      run.eb_quality.approx_over_actual);
}

/// Set-up: the reference outputs.  Each cell is screened by the model;
/// fall-through cells run through experiments::run_grid.
std::string reference_outputs(const std::vector<Request>& requests,
                              const Options& o) {
  Fields out;
  experiments::GridOptions grid;
  grid.threads = o.threads;
  for (const Request& r : requests) {
    std::vector<Scenario> fallthrough;
    std::vector<std::size_t> where;
    for (std::size_t i = 0; i < r.cells.size(); ++i) {
      const bool screened = experiments::predict_scenario(r.cells[i]).uncertainty <=
                            experiments::kDefaultScreenThreshold;
      out[r.name + "/" + std::to_string(i)] = screened ? "model" : "";
      if (!screened) {
        fallthrough.push_back(r.cells[i]);
        where.push_back(i);
      }
    }
    const auto runs = experiments::run_grid(fallthrough, grid);
    for (std::size_t k = 0; k < runs.size(); ++k)
      out[r.name + "/" + std::to_string(where[k])] = cell_digest(runs[k]);
  }
  return encode_fields(out);
}

/// One measured pass: every request through run_grid_screened.
std::string measured_pass(const std::vector<Request>& requests,
                          std::size_t threads) {
  Fields out;
  experiments::ScreenOptions screen;
  screen.grid.threads = threads;
  double error_sum = 0;
  std::size_t scored = 0;
  std::string latencies;
  for (const Request& r : requests) {
    const std::int64_t t0 = now_ns();
    const experiments::ScreenedGrid grid =
        experiments::run_grid_screened(r.cells, screen);
    latencies += support::strf("%.9f ", seconds_since(t0));
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
      const experiments::ScreenedCell& cell = grid.cells[i];
      out[r.name + "/" + std::to_string(i)] =
          cell.screened ? "model" : cell_digest(cell.run);
      if (cell.screened) continue;
      error_sum += std::fabs(cell.run.eb_quality.approx_over_actual - 1.0);
      ++scored;
    }
    out["confident/" + r.name] = std::to_string(grid.confident);
  }
  out["latencies"] = latencies;
  out["err_pct"] = support::strf("%.17g", scored ? 100 * error_sum / double(scored) : 0.0);
  return encode_fields(out);
}

std::string actual_memo_key(const Scenario& s) {
  const std::string program =
      s.workload ? workload::workload_key(*s.workload)
                 : support::strf("%d|%d|%lld", static_cast<int>(s.mode), s.loop,
                                 static_cast<long long>(s.n));
  return program + "|" + std::to_string(s.setup.machine.num_procs);
}

sim::Program program_of(const Scenario& s) {
  if (s.workload) return workload::make_program(*s.workload);
  if (s.mode == experiments::ExecMode::kSequential)
    return loops::make_sequential_ir(s.loop, s.n);
  return loops::make_concurrent_ir(s.loop, s.n, s.schedule);
}

/// The traced pass.  Requests run single-threaded so the grid's own time
/// can be set against the serial cost of the cells it executed.
std::string traced_pass(const std::vector<Request>& requests) {
  Tracer tr(true);
  support::Metrics::enable(true);
  std::size_t cells = 0;
  std::size_t confident = 0;
  std::size_t probe_mismatch = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t grid_ns = 0;
  for (const Request& r : requests) {
    std::vector<Scenario> fallthrough;
    std::vector<experiments::LoopRun> runs;
    const std::int64_t g0 = now_ns();
    {
      Scope grid(tr, "experiments.grid", r.cells.size());
      for (const Scenario& s : r.cells) {
        Scope span(tr, "model.predict", 1);
        if (experiments::predict_scenario(s).uncertainty >
            experiments::kDefaultScreenThreshold)
          fallthrough.push_back(s);
      }
      experiments::GridOptions serial;
      serial.threads = 1;
      Scope span(tr, "experiments.run_grid", fallthrough.size());
      runs = experiments::run_grid(fallthrough, serial);
    }
    grid_ns += now_ns() - g0;
    cells += r.cells.size();
    confident += r.cells.size() - fallthrough.size();

    // Probe: the same fall-through cells, layer by layer.
    Scope probe(tr, "experiments.probe", fallthrough.size());
    std::map<std::string, trace::Trace> actuals;
    for (std::size_t k = 0; k < fallthrough.size(); ++k) {
      const Scenario& s = fallthrough[k];
      sim::Program program = [&] {
        if (!s.workload) return program_of(s);
        Scope span(tr, "workload.synthesize", 1);
        return program_of(s);
      }();
      const instr::InstrumentationPlan plan =
          experiments::make_plan(s.plan, s.setup);
      trace::Trace measured;
      const std::string key = actual_memo_key(s);
      {
        Scope span(tr, "sim.simulate");
        if (!actuals.count(key))
          actuals[key] = sim::simulate_actual(s.setup.machine, program,
                                              experiments::scenario_name(s) +
                                                  "/actual");
        if (s.workload && workload::has_interference(*s.workload)) {
          const workload::InterferenceHook hook(plan, *s.workload);
          measured = sim::simulate(s.setup.machine, program, hook,
                                   experiments::scenario_name(s) +
                                       "/measured");
        } else {
          measured = sim::simulate(s.setup.machine, program, plan,
                                   experiments::scenario_name(s) +
                                       "/measured");
        }
        span.work(measured.size() + actuals[key].size());
      }
      const trace::Trace& actual = actuals[key];
      const core::AnalysisOverheads ov =
          experiments::overheads_for(plan, s.setup.machine);
      core::EventBasedOptions eb_opts;
      if (s.workload) eb_opts.semaphore_capacity =
          workload::semaphore_capacities(program);
      std::optional<trace::TraceIndex> index;
      {
        Scope span(tr, "trace.index", measured.size());
        index.emplace(measured);
      }
      core::EventBasedResult eb;
      {
        Scope span(tr, "core.eventbased", measured.size());
        eb = core::event_based_approximation(*index, ov, eb_opts);
      }
      trace::Trace tb;
      {
        Scope span(tr, "core.timebased", measured.size());
        tb = core::time_based_approximation(measured, ov);
      }
      {
        Scope span(tr, "core.quality", 2 * measured.size());
        (void)core::assess(measured, eb.approx, actual);
        (void)core::assess(measured, tb, actual);
      }
      if (trace_digest(eb.approx) != trace_digest(runs[k].event_based.approx))
        ++probe_mismatch;
    }
  }
  const support::MetricsSnapshot snap = support::Metrics::snapshot();
  Fields out;
  out["spans"] = pack_lines(tr.serialize());
  out["wall_s"] = support::strf("%.9f", seconds_since(t0));
  out["grid_s"] = support::strf("%.9f", static_cast<double>(grid_ns) * 1e-9);
  out["cells"] = std::to_string(cells);
  out["confident"] = std::to_string(confident);
  out["memo_hits"] = std::to_string(counter_value(snap, "grid.memo.hits"));
  out["memo_misses"] = std::to_string(counter_value(snap, "grid.memo.misses"));
  out["probe_mismatch"] = std::to_string(probe_mismatch);
  return encode_fields(out);
}

}  // namespace

void run_sweep(const Options& o, Report& report) {
  ::mkdir(o.workdir.c_str(), 0755);
  std::vector<Request> requests;
  Fields reference;
  std::string first_reference;
  bool references_agree = true;
  const double setup_s = timed_setups(kSetupReps, [&] {
    requests = sweep_requests(o);
    const ChildResult r =
        run_child([&] { return reference_outputs(requests, o); });
    report.op(r.ok, "sweep reference set-up" + (r.ok ? "" : ": " + r.error));
    if (first_reference.empty()) first_reference = r.payload;
    references_agree &= r.payload == first_reference;
    reference = decode_fields(r.payload);
  });
  report.op(references_agree, "set-up repetitions disagree on the reference");
  std::size_t cells = 0;
  for (const Request& r : requests) cells += r.cells.size();
  const std::int64_t null_kb = null_child_rss_kb();

  std::vector<double> cells_per_s, pass_p50_ms, pass_p99_ms, rss_mb, errors;
  std::vector<double> untraced_serial, traced_grid, confident_ratio, memo_ratio;
  std::vector<double> grid_self_ns;
  std::vector<Span> spans;
  double covered_ns = 0, traced_ns = 0;
  const int min_passes = o.trace ? 2 : 1;
  const std::int64_t start = now_ns();
  for (int pass = 0; pass < min_passes || seconds_since(start) < o.seconds;
       ++pass) {
    if (o.trace && pass % 2 == 1) {
      const ChildResult r =
          run_child([&] { return traced_pass(requests); });
      report.op(r.ok, "traced sweep pass" + (r.ok ? "" : ": " + r.error));
      if (!r.ok) continue;
      const Fields f = decode_fields(r.payload);
      std::vector<Span> mine;
      Tracer::append(mine, unpack_lines(f.at("spans")));
      const auto totals = layer_totals(mine);
      for (const auto& [name, t] : totals)
        covered_ns += static_cast<double>(t.self_ns);
      traced_ns += field_num(f, "wall_s") * 1e9;
      const auto& probe = totals.at("experiments.probe");
      grid_self_ns.push_back(
          static_cast<double>(totals.at("experiments.run_grid").total_ns -
                              (probe.total_ns - probe.self_ns) +
                              totals.at("experiments.grid").self_ns));
      traced_grid.push_back(field_num(f, "grid_s"));
      confident_ratio.push_back(field_num(f, "confident") /
                                field_num(f, "cells"));
      const double hits = field_num(f, "memo_hits");
      const double misses = field_num(f, "memo_misses");
      memo_ratio.push_back(hits + misses > 0 ? hits / (hits + misses) : 0);
      report.op(f.at("probe_mismatch") == "0",
                "layer-by-layer probe disagrees with run_grid");
      Tracer::append(spans, mine);
      continue;
    }
    // Traced runs compare against an untraced single-threaded pass.
    const std::size_t threads = o.trace ? 1 : o.threads;
    const ChildResult r =
        run_child([&] { return measured_pass(requests, threads); });
    report.op(r.ok, "sweep pass" + (r.ok ? "" : ": " + r.error));
    if (!r.ok) continue;
    const Fields f = decode_fields(r.payload);
    double pass_s = 0;
    std::vector<double> latencies_ms;
    std::istringstream lat(f.at("latencies"));
    for (double secs = 0; lat >> secs;) {
      latencies_ms.push_back(1e3 * secs);
      pass_s += secs;
    }
    cells_per_s.push_back(static_cast<double>(cells) / pass_s);
    pass_p50_ms.push_back(quantile(latencies_ms, 0.5));
    pass_p99_ms.push_back(quantile(latencies_ms, 0.99));
    if (o.trace) untraced_serial.push_back(pass_s);
    rss_mb.push_back(static_cast<double>(r.rss_kb - null_kb) / 1024);
    errors.push_back(field_num(f, "err_pct"));
    for (const Request& req : requests)
      for (std::size_t i = 0; i < req.cells.size(); ++i) {
        const std::string key = req.name + "/" + std::to_string(i);
        std::string got = f.at(key);
        if (o.break_check == "sweep_cell" && key == "lfk17/9")
          got += "x";
        report.op(got == reference.at(key),
                  "sweep cell " + key + " differs from run_grid: " + got +
                      " vs " + reference.at(key));
      }
  }
  std::printf("sweep grid: %zu requests, %zu cells, %zu passes (medians "
              "over passes)\n",
              requests.size(), cells, cells_per_s.size());

  if (!o.trace) {
    report.values["setup_s"] = setup_s;
    report.values["throughput_per_s"] = median(cells_per_s);
    report.values["latency_p50_ms"] = median(pass_p50_ms);
    report.values["latency_p99_ms"] = median(pass_p99_ms);
    report.values["peak_rss_mb"] = median(rss_mb);
    report.values["recon_error_pct"] = median(errors);
    report.add_detail("sweep_cells_per_s",
                      report.values["throughput_per_s"], "cells/s", "higher");
    return;
  }
  const auto totals = layer_totals(spans);
  for (const char* layer :
       {"trace.index", "sim.simulate", "core.eventbased", "core.timebased",
        "core.quality"})
    report.values[std::string(layer) + ".ns_per_event"] =
        ns_per_unit(totals, layer);
  report.values["workload.synthesize.ns_per_cell"] =
      ns_per_unit(totals, "workload.synthesize");
  report.values["model.predict.ns_per_cell"] =
      ns_per_unit(totals, "model.predict");
  report.values["model.screen.confident_ratio"] = median(confident_ratio);
  report.values["experiments.memo_hit_ratio"] = median(memo_ratio);
  report.values["experiments.grid.self_ns"] = median(grid_self_ns);
  report.values["tracing.coverage"] = traced_ns > 0 ? covered_ns / traced_ns : 0;
  const double untraced = median(untraced_serial);
  report.values["tracing.overhead_pct"] =
      untraced > 0 ? (median(traced_grid) - untraced) / untraced * 100 : 0;
  write_spans(o.workdir + "/spans-sweep.jsonl", spans);
}

}  // namespace perfbench
