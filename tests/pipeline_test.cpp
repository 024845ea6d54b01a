// Tests for the unified analysis pipeline (core/pipeline.hpp) and the
// shared TraceIndex contract underneath it.
//
// The load-bearing guarantees:
//   * every analyzer run through AnalysisPipeline produces byte-identical
//     traces and quality metrics to calling the analysis directly on the
//     same measured trace (the refactor changed plumbing, not results);
//   * acquisition matches the standalone triage/repair path on
//     fault-injected traces;
//   * the untrusted entry points (run_file, run) equal running the
//     acquisition-only API's outcome, field by field, on faulted, torn and
//     clean inputs in every repair mode;
//   * the Monte-Carlo explorer is bit-identical at 1, 2, and 8 worker
//     threads;
//   * TraceIndex answers structural queries exactly as a linear scan would.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/eventbased.hpp"
#include "core/liberal.hpp"
#include "core/likely.hpp"
#include "core/pipeline.hpp"
#include "core/timebased.hpp"
#include "experiments/experiments.hpp"
#include "trace/faults.hpp"
#include "trace/index.hpp"
#include "trace/io.hpp"
#include "trace/repair.hpp"
#include "trace/validate.hpp"

namespace perturb::core {
namespace {

// Measured traces carry probe-cost timing noise; this slack covers it (the
// same value the repair and fuzz tests use).
constexpr trace::Tick kSlack = 130;

struct Fixture {
  trace::Trace actual;
  trace::Trace measured;
  AnalysisOverheads ov;
  sim::MachineConfig machine;
};

Fixture make_fixture(int loop, std::int64_t n = 200) {
  experiments::Setup setup;
  const auto run = experiments::run_concurrent_experiment(
      loop, n, setup, experiments::PlanKind::kFull);
  const auto plan =
      experiments::make_plan(experiments::PlanKind::kFull, setup);
  return Fixture{run.actual, run.measured,
                 experiments::overheads_for(plan, setup.machine),
                 setup.machine};
}

bool same_trace(const trace::Trace& a, const trace::Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i] == b[i])) return false;
  return true;
}

PipelineOptions options_for(const Fixture& f) {
  PipelineOptions options;
  options.overheads = f.ov;
  options.machine = f.machine;
  options.sync_slack = kSlack;
  options.likely_samples = 16;
  return options;
}

// ---- pipeline == direct analysis, per loop -------------------------------

class PipelineEquivalence : public testing::TestWithParam<int> {};

TEST_P(PipelineEquivalence, MatchesDirectAnalyses) {
  const Fixture f = make_fixture(GetParam());
  AnalysisPipeline pipeline(options_for(f));
  pipeline.add(AnalyzerKind::kTimeBased)
      .add(AnalyzerKind::kEventBased)
      .add(AnalyzerKind::kLiberal);
  const PipelineResult result = pipeline.run(f.measured, &f.actual);
  ASSERT_TRUE(result.acquire.ok) << result.acquire.diagnosis;
  ASSERT_EQ(result.outputs.size(), 3u);

  // Time-based: identical trace and quality to the direct call.
  const trace::Trace tb = time_based_approximation(f.measured, f.ov);
  EXPECT_TRUE(same_trace(result.outputs[0].approx, tb));
  const auto tb_q = assess(f.measured, tb, f.actual);
  ASSERT_TRUE(result.outputs[0].quality.has_value());
  EXPECT_DOUBLE_EQ(result.outputs[0].quality->approx_over_actual,
                   tb_q.approx_over_actual);
  EXPECT_DOUBLE_EQ(result.outputs[0].quality->measured_over_actual,
                   tb_q.measured_over_actual);

  // Event-based: identical trace and wait counters.
  const EventBasedResult eb = event_based_approximation(f.measured, f.ov);
  EXPECT_TRUE(same_trace(result.outputs[1].approx, eb.approx));
  ASSERT_TRUE(result.outputs[1].event_stats.has_value());
  EXPECT_EQ(result.outputs[1].event_stats->awaits_total, eb.awaits_total);
  EXPECT_EQ(result.outputs[1].event_stats->waits_measured, eb.waits_measured);
  EXPECT_EQ(result.outputs[1].event_stats->waits_approx, eb.waits_approx);
  EXPECT_EQ(result.outputs[1].event_stats->waits_removed, eb.waits_removed);
  EXPECT_EQ(result.outputs[1].event_stats->waits_introduced,
            eb.waits_introduced);

  // Liberal: identical replayed trace.
  const DoacrossShape shape = extract_doacross_shape(f.measured, f.ov);
  LiberalOptions lib;
  lib.machine = f.machine;
  const LiberalResult direct = liberal_approximation(shape, lib);
  EXPECT_TRUE(same_trace(result.outputs[2].approx, direct.approx));
}

INSTANTIATE_TEST_SUITE_P(SeedLoops, PipelineEquivalence,
                         testing::Values(3, 4, 17));

// ---- determinism across worker counts ------------------------------------

TEST(Pipeline, ThreadCountDoesNotChangeResults) {
  const Fixture f = make_fixture(17);
  std::vector<PipelineResult> results;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    PipelineOptions options = options_for(f);
    options.threads = threads;
    AnalysisPipeline pipeline(std::move(options));
    pipeline.add(AnalyzerKind::kTimeBased)
        .add(AnalyzerKind::kEventBased)
        .add(AnalyzerKind::kLikely);
    results.push_back(pipeline.run(f.measured, &f.actual));
    ASSERT_TRUE(results.back().acquire.ok);
  }
  const PipelineResult& a = results[0];
  const PipelineResult& b = results[1];
  EXPECT_TRUE(same_trace(a.outputs[0].approx, b.outputs[0].approx));
  EXPECT_TRUE(same_trace(a.outputs[1].approx, b.outputs[1].approx));
  ASSERT_TRUE(a.outputs[2].distribution.has_value());
  ASSERT_TRUE(b.outputs[2].distribution.has_value());
  EXPECT_EQ(a.outputs[2].distribution->loop_times,
            b.outputs[2].distribution->loop_times);
}

TEST(Pipeline, LikelyExecutionsBitIdenticalAt1And2And8Threads) {
  const Fixture f = make_fixture(17);
  const DoacrossShape shape = extract_doacross_shape(f.measured, f.ov);
  std::vector<std::vector<trace::Tick>> samples;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    LikelyOptions opt;
    opt.machine = f.machine;
    opt.samples = 64;
    opt.threads = threads;
    samples.push_back(likely_executions(shape, opt).loop_times);
  }
  EXPECT_EQ(samples[0], samples[1]);
  EXPECT_EQ(samples[0], samples[2]);
}

// ---- one composition: run_file/run == run of the acquisition ------------

/// One entry point's outcome: its result, or the message it threw.
struct Attempt {
  std::optional<PipelineResult> result;
  std::string error;
};

template <typename Fn>
Attempt attempt(Fn&& fn) {
  try {
    return {fn(), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, e.what()};
  }
}

void expect_same_violations(const std::vector<trace::Violation>& a,
                            const std::vector<trace::Violation>& b,
                            const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << what << " #" << i;
    EXPECT_EQ(a[i].message, b[i].message) << what << " #" << i;
    EXPECT_EQ(a[i].event_index, b[i].event_index) << what << " #" << i;
  }
}

void expect_same_quality(const ApproximationQuality& a,
                         const ApproximationQuality& b,
                         const std::string& what) {
  EXPECT_EQ(a.measured_over_actual, b.measured_over_actual) << what;
  EXPECT_EQ(a.approx_over_actual, b.approx_over_actual) << what;
  EXPECT_EQ(a.percent_error, b.percent_error) << what;
  EXPECT_EQ(a.mean_abs_event_error, b.mean_abs_event_error) << what;
  EXPECT_EQ(a.rms_event_error, b.rms_event_error) << what;
  EXPECT_EQ(a.p50_event_error, b.p50_event_error) << what;
  EXPECT_EQ(a.p95_event_error, b.p95_event_error) << what;
  EXPECT_EQ(a.matched_events, b.matched_events) << what;
  EXPECT_EQ(a.degraded_input, b.degraded_input) << what;
}

/// Field-by-field equality of two pipeline results (or of the errors the
/// two entry points threw).
void expect_same_attempt(const Attempt& a, const Attempt& b,
                         const std::string& what) {
  ASSERT_EQ(a.result.has_value(), b.result.has_value())
      << what << ": " << a.error << " | " << b.error;
  if (!a.result.has_value()) {
    EXPECT_EQ(a.error, b.error) << what;
    return;
  }
  const AcquireOutcome& x = a.result->acquire;
  const AcquireOutcome& y = b.result->acquire;
  EXPECT_EQ(x.ok, y.ok) << what;
  EXPECT_EQ(x.diagnosis, y.diagnosis) << what;
  EXPECT_TRUE(same_trace(x.measured, y.measured)) << what;
  expect_same_violations(x.violations, y.violations, what + " triage");

  EXPECT_EQ(x.repaired, y.repaired) << what;
  const trace::RepairManifest& m = x.manifest;
  const trace::RepairManifest& n = y.manifest;
  ASSERT_EQ(m.actions.size(), n.actions.size()) << what;
  for (std::size_t i = 0; i < m.actions.size(); ++i) {
    EXPECT_EQ(m.actions[i].kind, n.actions[i].kind) << what;
    EXPECT_EQ(m.actions[i].strategy, n.actions[i].strategy) << what;
    EXPECT_EQ(m.actions[i].event_index, n.actions[i].event_index) << what;
    EXPECT_EQ(m.actions[i].ticks_adjusted, n.actions[i].ticks_adjusted)
        << what;
    EXPECT_EQ(m.actions[i].detail, n.actions[i].detail) << what;
  }
  EXPECT_EQ(m.actions_truncated, n.actions_truncated) << what;
  EXPECT_EQ(m.severity, n.severity) << what;
  EXPECT_EQ(m.passes, n.passes) << what;
  EXPECT_EQ(m.events_dropped, n.events_dropped) << what;
  EXPECT_EQ(m.events_synthesized, n.events_synthesized) << what;
  EXPECT_EQ(m.events_adjusted, n.events_adjusted) << what;
  EXPECT_EQ(m.total_ticks_adjusted, n.total_ticks_adjusted) << what;
  expect_same_violations(m.remaining, n.remaining, what + " remaining");

  EXPECT_EQ(x.salvaged, y.salvaged) << what;
  EXPECT_EQ(x.salvage.complete, y.salvage.complete) << what;
  EXPECT_EQ(x.salvage.version, y.salvage.version) << what;
  EXPECT_EQ(x.salvage.events_declared, y.salvage.events_declared) << what;
  EXPECT_EQ(x.salvage.events_recovered, y.salvage.events_recovered) << what;
  EXPECT_EQ(x.salvage.chunks_total, y.salvage.chunks_total) << what;
  EXPECT_EQ(x.salvage.chunks_recovered, y.salvage.chunks_recovered) << what;
  EXPECT_EQ(x.salvage.detail, y.salvage.detail) << what;
  EXPECT_EQ(x.degraded, y.degraded) << what;

  const auto& ox = a.result->outputs;
  const auto& oy = b.result->outputs;
  ASSERT_EQ(ox.size(), oy.size()) << what;
  for (std::size_t k = 0; k < ox.size(); ++k) {
    EXPECT_EQ(ox[k].analyzer, oy[k].analyzer) << what;
    EXPECT_TRUE(same_trace(ox[k].approx, oy[k].approx))
        << what << " analyzer " << ox[k].analyzer;
    ASSERT_EQ(ox[k].quality.has_value(), oy[k].quality.has_value()) << what;
    if (ox[k].quality.has_value())
      expect_same_quality(*ox[k].quality, *oy[k].quality,
                          what + " " + ox[k].analyzer);
  }
}

std::string binary_image(const trace::Trace& t) {
  std::ostringstream out;
  trace::write_binary(out, t);
  return out.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The fault corpus: 32 seeded trace-level injections (random drops, clock
/// skew, both) on one Livermore trace, each with a named case.
std::vector<std::pair<std::string, trace::Trace>> faulted_traces(
    const trace::Trace& measured) {
  std::vector<std::pair<std::string, trace::Trace>> cases;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    trace::Trace t;
    switch (seed % 3) {
      case 0: t = trace::drop_random_events(measured, 0.02, seed); break;
      case 1: t = trace::skew_timestamps(measured, 40, 0.2, seed); break;
      default:
        t = trace::skew_timestamps(
            trace::drop_random_events(measured, 0.01, seed), 30, 0.1, seed);
        break;
    }
    cases.emplace_back("seed " + std::to_string(seed), std::move(t));
  }
  return cases;
}

/// One input of the equivalence corpus: an in-memory trace for run(), a
/// file image for run_file(), or both.
struct EntryCase {
  std::string name;
  std::optional<trace::Trace> trace;
  std::optional<std::string> bytes;
};

TEST(Pipeline, RunAndRunFileEqualRunOfAcquisitionOnFaultedAndTornInputs) {
  const Fixture f = make_fixture(17);
  // The seeded injections and one clean trace go through both entry
  // points; torn (byte-cut) and bit-flipped images only exist as files,
  // truncated and empty traces only in memory.
  std::vector<EntryCase> cases;
  for (auto& [name, t] : faulted_traces(f.measured)) {
    std::string bytes = binary_image(t);
    cases.push_back({name, std::move(t), std::move(bytes)});
  }
  const std::string clean = binary_image(f.measured);
  cases.push_back({"clean", f.measured, clean});
  for (const double keep : {0.05, 0.3, 0.55, 0.8, 0.97, 0.999})
    cases.push_back({"torn file " + std::to_string(keep), std::nullopt,
                     trace::truncate_bytes(clean, keep)});
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::string flipped = clean;
    trace::flip_bits(flipped, 1, seed);
    cases.push_back({"flipped " + std::to_string(seed), std::nullopt,
                     std::move(flipped)});
  }
  for (const double keep : {0.1, 0.5, 0.9})
    cases.push_back({"torn trace " + std::to_string(keep),
                     trace::truncate_trace(f.measured, keep), std::nullopt});
  cases.push_back({"empty", trace::Trace(f.measured.info()), std::nullopt});

  const std::string path = testing::TempDir() + "pipeline_consolidated.bin";
  std::size_t repaired = 0, salvaged = 0, failed = 0;
  const auto tally = [&](const Attempt& a) {
    if (!a.result.has_value()) return;
    if (a.result->acquire.repaired) ++repaired;
    if (a.result->acquire.salvaged) ++salvaged;
    if (!a.result->acquire.ok) ++failed;
  };
  for (const RepairMode mode : {RepairMode::kOff, RepairMode::kConservative,
                                RepairMode::kAggressive}) {
    PipelineOptions options = options_for(f);
    options.repair = mode;
    AnalysisPipeline pipeline(std::move(options));
    pipeline.add(AnalyzerKind::kTimeBased).add(AnalyzerKind::kEventBased);
    for (const EntryCase& c : cases) {
      const std::string what = c.name + " mode " + std::to_string(int(mode));
      if (c.trace) {
        const Attempt fused =
            attempt([&] { return pipeline.run(*c.trace, &f.actual); });
        const Attempt staged = attempt([&] {
          return pipeline.run(pipeline.acquire(*c.trace), &f.actual);
        });
        expect_same_attempt(fused, staged, what + " run");
        tally(fused);
      }
      if (c.bytes) {
        write_bytes(path, *c.bytes);
        const Attempt fused =
            attempt([&] { return pipeline.run_file(path, &f.actual); });
        const Attempt staged = attempt([&] {
          return pipeline.run(pipeline.acquire_file(path), &f.actual);
        });
        expect_same_attempt(fused, staged, what + " run_file");
        tally(fused);
      }
    }
  }
  std::remove(path.c_str());
  // The corpus exercises the rejection, repair and salvage branches, not
  // just the clean path.
  std::printf("%zu repaired, %zu salvaged, %zu failed acquisitions\n",
              repaired, salvaged, failed);
  EXPECT_GE(repaired, 80u);
  EXPECT_GE(salvaged, 8u);
  EXPECT_GE(failed, 40u);
}

// ---- acquisition: triage, repair, trust ----------------------------------

TEST(Pipeline, RejectsFaultyTraceWithoutRepair) {
  const Fixture f = make_fixture(3);
  const trace::Trace injected =
      trace::inject_violation(f.measured, trace::ViolationKind::kDuplicateAdvance);
  AnalysisPipeline pipeline(options_for(f));
  pipeline.add(AnalyzerKind::kEventBased);
  const PipelineResult result = pipeline.run(injected);
  EXPECT_FALSE(result.acquire.ok);
  EXPECT_FALSE(result.acquire.diagnosis.empty());
  EXPECT_FALSE(result.acquire.violations.empty());
  EXPECT_TRUE(result.outputs.empty());
}

TEST(Pipeline, RepairedAcquisitionMatchesManualRepair) {
  const Fixture f = make_fixture(3);
  trace::Trace injected =
      trace::inject_violation(f.measured, trace::ViolationKind::kLockUnbalanced);
  injected = trace::inject_violation(injected,
                                     trace::ViolationKind::kDuplicateAdvance);

  PipelineOptions options = options_for(f);
  options.repair = RepairMode::kConservative;
  AnalysisPipeline pipeline(std::move(options));
  pipeline.add(AnalyzerKind::kEventBased);
  const PipelineResult result = pipeline.run(injected, &f.actual);
  ASSERT_TRUE(result.acquire.ok) << result.acquire.diagnosis;
  EXPECT_TRUE(result.acquire.repaired);
  EXPECT_FALSE(result.acquire.manifest.actions.empty());

  trace::RepairOptions ropts;
  ropts.sync_slack = kSlack;
  const auto manual = trace::repair(injected, ropts);
  ASSERT_TRUE(same_trace(result.acquire.measured, manual.repaired));
  const EventBasedResult direct =
      event_based_approximation(manual.repaired, f.ov);
  EXPECT_TRUE(same_trace(result.outputs[0].approx, direct.approx));
  // Quality is scored against the repaired measured trace.
  ASSERT_TRUE(result.outputs[0].quality.has_value());
  const auto direct_q = assess(manual.repaired, direct.approx, f.actual);
  EXPECT_DOUBLE_EQ(result.outputs[0].quality->approx_over_actual,
                   direct_q.approx_over_actual);
}

TEST(Pipeline, TrustedAcquireSkipsValidation) {
  const Fixture f = make_fixture(3);
  const trace::Trace injected =
      trace::inject_violation(f.measured, trace::ViolationKind::kDuplicateAdvance);
  const AcquireOutcome outcome = trusted_acquire(injected);
  EXPECT_TRUE(outcome.ok);
  EXPECT_FALSE(outcome.repaired);
  EXPECT_TRUE(same_trace(outcome.measured, injected));
}

TEST(Pipeline, OutputLookupByName) {
  const Fixture f = make_fixture(3);
  AnalysisPipeline pipeline(options_for(f));
  pipeline.add(AnalyzerKind::kTimeBased).add(AnalyzerKind::kEventBased);
  const PipelineResult result = pipeline.run(f.measured);
  ASSERT_TRUE(result.acquire.ok);
  ASSERT_NE(result.output("time-based"), nullptr);
  ASSERT_NE(result.output("event-based"), nullptr);
  EXPECT_EQ(result.output("event-based")->analyzer, "event-based");
  EXPECT_EQ(result.output("liberal"), nullptr);
}

TEST(Pipeline, ReportRendersAllSections) {
  const Fixture f = make_fixture(17);
  const PipelineOptions options = options_for(f);
  AnalysisPipeline pipeline(options);
  pipeline.add(AnalyzerKind::kEventBased);
  const PipelineResult result = pipeline.run(f.measured);
  ASSERT_TRUE(result.acquire.ok);
  const std::string report =
      render_pipeline_report(result.outputs[0].approx, options);
  EXPECT_NE(report.find("-- waiting --"), std::string::npos);
  EXPECT_NE(report.find("-- parallelism --"), std::string::npos);
  EXPECT_NE(report.find("-- critical path --"), std::string::npos);
}

// ---- TraceIndex invariants ------------------------------------------------

TEST(TraceIndexContract, PerProcessorChainsPartitionTheTrace) {
  const Fixture f = make_fixture(17);
  const trace::TraceIndex idx(f.measured);
  ASSERT_EQ(idx.size(), f.measured.size());

  std::size_t covered = 0;
  for (std::size_t p = 0; p < idx.num_procs(); ++p) {
    const auto& events = idx.events_of(static_cast<trace::ProcId>(p));
    covered += events.size();
    for (std::size_t k = 0; k < events.size(); ++k) {
      EXPECT_EQ(f.measured[events[k]].proc, p);
      EXPECT_EQ(idx.prev_on_proc(events[k]),
                k == 0 ? trace::TraceIndex::npos : events[k - 1]);
      if (k > 0) {
        EXPECT_LT(events[k - 1], events[k]);
      }
    }
  }
  EXPECT_EQ(covered, f.measured.size());
}

TEST(TraceIndexContract, AdvanceLookupsMatchLinearScan) {
  const Fixture f = make_fixture(17);
  const trace::TraceIndex idx(f.measured);

  std::map<trace::SyncKey, std::vector<std::size_t>> scan;
  for (std::size_t i = 0; i < f.measured.size(); ++i) {
    const auto& e = f.measured[i];
    if (e.kind == trace::EventKind::kAdvance)
      scan[{e.object, e.payload}].push_back(i);
  }
  ASSERT_FALSE(scan.empty());
  for (const auto& [key, occurrences] : scan) {
    EXPECT_EQ(idx.first_advance(key), occurrences.front());
    EXPECT_EQ(idx.last_advance(key), occurrences.back());
    const auto range = idx.advances(key);
    ASSERT_EQ(range.size(), occurrences.size());
    EXPECT_TRUE(std::equal(range.begin(), range.end(), occurrences.begin()));
    // Streaming variant: strictly-before semantics.
    EXPECT_EQ(idx.last_advance_before(key, occurrences.front()),
              trace::TraceIndex::npos);
    EXPECT_EQ(idx.last_advance_before(key, occurrences.back() + 1),
              occurrences.back());
  }
  // A key that never occurs misses cleanly.
  EXPECT_EQ(idx.last_advance({0xDEAD, -42}), trace::TraceIndex::npos);
  EXPECT_EQ(idx.first_advance({0xDEAD, -42}), trace::TraceIndex::npos);
}

TEST(TraceIndexContract, BarrierEpisodesSortedAndInTraceOrder) {
  const Fixture f = make_fixture(17);
  const trace::TraceIndex idx(f.measured);
  const auto& episodes = idx.barrier_episodes();
  ASSERT_FALSE(episodes.empty());
  for (std::size_t k = 1; k < episodes.size(); ++k)
    EXPECT_TRUE(episodes[k - 1].key < episodes[k].key);
  for (const auto& ep : episodes) {
    EXPECT_TRUE(std::is_sorted(ep.arrivals.begin(), ep.arrivals.end()));
    EXPECT_TRUE(std::is_sorted(ep.departs.begin(), ep.departs.end()));
    for (const std::size_t i : ep.arrivals)
      EXPECT_EQ(f.measured[i].kind, trace::EventKind::kBarrierArrive);
    for (const std::size_t i : ep.departs)
      EXPECT_EQ(f.measured[i].kind, trace::EventKind::kBarrierDepart);
    EXPECT_NE(idx.barrier_episode(ep.key.object, ep.key.index), nullptr);
  }
}

TEST(TraceIndexContract, LoopAndIterationSpansAreWellFormed) {
  const Fixture f = make_fixture(17);
  const trace::TraceIndex idx(f.measured);
  ASSERT_EQ(idx.loops().size(), 1u);
  const auto& loop = idx.loops().front();
  EXPECT_EQ(f.measured[loop.begin_index].kind, trace::EventKind::kLoopBegin);
  ASSERT_NE(loop.end_index, trace::TraceIndex::npos);
  EXPECT_EQ(f.measured[loop.end_index].kind, trace::EventKind::kLoopEnd);
  EXPECT_LT(loop.begin_index, loop.end_index);

  ASSERT_FALSE(idx.iterations().empty());
  for (const auto& iter : idx.iterations()) {
    EXPECT_EQ(f.measured[iter.begin_index].kind,
              trace::EventKind::kIterBegin);
    ASSERT_NE(iter.end_index, trace::TraceIndex::npos);
    EXPECT_EQ(f.measured[iter.end_index].kind, trace::EventKind::kIterEnd);
    EXPECT_EQ(f.measured[iter.begin_index].proc,
              f.measured[iter.end_index].proc);
  }
}

}  // namespace
}  // namespace perturb::core
