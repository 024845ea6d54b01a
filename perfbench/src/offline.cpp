// offline — the paper's workflow on full-size captured traces.
//
// Set-up simulates the corpus once (measured lfk3/lfk4/lfk17, one
// `contention` workload trace) and writes it as binary v2, plus two
// degraded copies of lfk3: one torn (bytes cut), one with events dropped
// before the bytes are cut.  Each measured pass takes every file through
// the batch path `perturb-analyze --report` takes, the streamed path, and a
// what-if rank of every site at 50%; each path runs in its own forked child
// so its peak RSS is its own.  The file with dropped events skips the
// streamed path, which salvages but never repairs.  The traced pass
// replays the same calls stage by stage, with a span around each public
// function.
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include <sys/stat.h>

#include "analysis/critical_path.hpp"
#include "analysis/parallelism.hpp"
#include "analysis/sites.hpp"
#include "analysis/waiting.hpp"
#include "common.hpp"
#include "core/eventbased.hpp"
#include "core/quality.hpp"
#include "core/timebased.hpp"
#include "experiments/experiments.hpp"
#include "loops/programs.hpp"
#include "sim/engine.hpp"
#include "support/check.hpp"
#include "support/fsio.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "trace/chunk_reader.hpp"
#include "trace/faults.hpp"
#include "trace/index.hpp"
#include "trace/io.hpp"
#include "trace/repair.hpp"
#include "trace/validate.hpp"
#include "whatif/whatif.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using namespace perturb;

/// Traced passes must cover at least this share of their wall time with
/// layer spans (self times summed), or the trace misses work.
constexpr double kMinCoverage = 0.95;
constexpr int kSetupReps = 3;
/// Share of events dropped from the faulted copy before its bytes are cut:
/// enough that repair has real work on every seed.
constexpr double kDropRate = 0.0005;

/// The layers of a traced pass whose self time a per-layer metric reports.
/// Coverage counts only these, so time outside them shows as uncovered.
constexpr const char* kPassLayers[] = {
    "core.pipeline",          "trace.decode",         "trace.index",
    "trace.validate",         "trace.repair",         "core.eventbased",
    "core.timebased",         "core.quality",         "analysis.waiting",
    "analysis.parallelism",   "analysis.critical_path", "whatif.dag_build",
    "whatif.sweep",           "trace.chunk_decode",   "core.stream"};

struct CorpusFile {
  std::string name;
  std::string measured;  ///< binary v2 path
  std::string actual;    ///< scored against this trace; empty = unscored
  bool repair = false;   ///< acquired with --repair (salvage, then repair)
  bool streamed = true;  ///< also runs the streamed path
  core::PipelineOptions options;
};

/// One simulated source of the corpus.
struct Source {
  std::string name;
  int loop = 0;                                ///< Livermore kernel, or 0
  std::optional<workload::WorkloadSpec> spec;  ///< workload family instead
  bool degraded_copies = false;  ///< also writes the torn and faulted files
};

struct Corpus {
  std::vector<Source> sources;
  std::vector<CorpusFile> files;
  std::int64_t n = 0;
  experiments::Setup setup;
  double torn_keep = 0.6;
  std::size_t torn = 0;     ///< files index of the torn copy
  std::size_t faulted = 0;  ///< files index of the faulted copy
};

workload::WorkloadSpec contention_spec(bool small) {
  workload::WorkloadSpec spec;
  spec.family = workload::Family::kContention;
  spec.seed = 7;  // pinned: the family's structure stays fixed across seeds
  spec.params = workload::default_params(spec.family);
  spec.params.trip = small ? 200 : 20000;
  return spec;
}

Corpus corpus_layout(const Options& o) {
  Corpus c;
  c.n = o.small ? 3000 : 143000;
  c.setup.seed = 1991 + o.seed;  // probe-cost jitter of the measured runs
  const std::string dir = o.workdir + "/";
  for (const int loop : {3, 4, 17}) {
    Source s;
    s.name = "lfk" + std::to_string(loop);
    s.loop = loop;
    s.degraded_copies = loop == 3;
    c.sources.push_back(s);
  }
  Source contention;
  contention.name = "contention";
  contention.spec = contention_spec(o.small);
  c.sources.push_back(contention);

  const core::PipelineOptions base = analysis_options();
  for (const Source& s : c.sources) {
    CorpusFile f;
    f.name = s.name;
    f.measured = dir + s.name + ".measured.bin";
    f.actual = dir + s.name + ".actual.bin";
    f.options = base;
    if (s.spec)
      f.options.event_based.semaphore_capacity =
          workload::semaphore_capacities(workload::make_program(*s.spec));
    c.files.push_back(f);
  }
  // Torn: salvage keeps a prefix the validator accepts, so the streamed
  // path must agree with batch.  Faulted: the dropped events leave
  // causality violations that repair has to fix.
  for (const char* name : {"lfk3-torn", "lfk3-faulted"}) {
    CorpusFile f;
    f.name = name;
    f.measured = dir + name + ".measured.bin";
    f.repair = true;
    f.streamed = f.name == "lfk3-torn";
    f.options = base;
    f.options.repair = core::RepairMode::kConservative;
    (f.streamed ? c.torn : c.faulted) = c.files.size();
    c.files.push_back(f);
  }
  return c;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::string error;
  PERTURB_CHECK_MSG(support::write_file_atomic(path, bytes, &error),
                    "cannot write " + path + ": " + error);
}

/// Simulates and writes every source, one thread per source (at most
/// `threads` at once).  Spans go to per-source tracers, merged in order.
std::string build_corpus(const Corpus& c, const Options& o, bool traced) {
  std::vector<Tracer> tracers(c.sources.size(), Tracer(traced));
  const instr::InstrumentationPlan plan =
      experiments::make_plan(experiments::PlanKind::kFull, c.setup);
  support::parallel_for(o.threads, c.sources.size(), [&](std::size_t k) {
    const Source& s = c.sources[k];
    Tracer& tr = tracers[k];
    sim::Program program = [&] {
      if (!s.spec) return loops::make_concurrent_ir(s.loop, c.n,
                                                    sim::Schedule::kCyclic);
      Scope span(tr, "workload.synthesize", 1);
      return workload::make_program(*s.spec);
    }();
    trace::Trace actual;
    trace::Trace measured;
    {
      Scope span(tr, "sim.simulate");
      actual = sim::simulate_actual(c.setup.machine, program,
                                    s.name + "/actual");
      measured = sim::simulate(c.setup.machine, program, plan,
                               s.name + "/measured");
      span.work(actual.size() + measured.size());
    }
    Scope span(tr, "trace.write", actual.size() + measured.size());
    const CorpusFile& f = c.files[k];
    trace::save(f.actual, actual);
    std::ostringstream image;
    trace::write_binary(image, measured);
    const std::string bytes = image.str();
    write_bytes(f.measured, bytes);
    if (s.degraded_copies) {
      write_bytes(c.files[c.torn].measured,
                  trace::truncate_bytes(bytes, c.torn_keep));
      const trace::Trace faulted =
          trace::drop_random_events(measured, kDropRate, c.setup.seed);
      std::ostringstream faulted_image;
      trace::write_binary(faulted_image, faulted);
      write_bytes(c.files[c.faulted].measured,
                  trace::truncate_bytes(faulted_image.str(), c.torn_keep));
      span.work(measured.size() + faulted.size());
    }
  });
  std::string spans;
  for (const Tracer& tr : tracers) spans += tr.serialize();
  return spans;
}

// ---- the measured paths ----------------------------------------------------

/// Batch path with report, then the what-if rank, exactly as
/// `perturb-analyze FILE --report --whatif-rank=ALL [--actual A]` runs them.
Fields batch_phase(const CorpusFile& f, const Options& o) {
  core::AnalysisPipeline pipeline(f.options);
  pipeline.add(core::AnalyzerKind::kEventBased)
      .add(core::AnalyzerKind::kTimeBased);
  const std::int64_t t0 = now_ns();
  std::optional<trace::Trace> actual;
  if (!f.actual.empty()) actual = trace::load(f.actual);
  const core::PipelineResult result =
      pipeline.run_file(f.measured, actual ? &*actual : nullptr);
  PERTURB_CHECK_MSG(result.acquire.ok,
                    f.name + ": " + result.acquire.diagnosis);
  const core::AnalyzerOutput& eb = *result.output("event-based");
  (void)core::render_pipeline_report(eb.approx, f.options);
  const double batch_s = seconds_since(t0);
  const std::int64_t batch_rss = self_peak_rss_kb();

  const std::int64_t t1 = now_ns();
  const trace::TraceIndex index(eb.approx);
  const analysis::SiteRegistry sites(index);
  const whatif::WhatIfDag dag(index, sites);
  whatif::WhatIfEngine engine(dag);
  support::TaskPool pool(o.threads);
  (void)engine.rank(50, pool, sites.size());
  const double whatif_s = seconds_since(t1);

  const analysis::CriticalPathStats cp = analysis::critical_path(index);
  Fields out;
  out["batch_s"] = num(batch_s);
  out["whatif_s"] = num(whatif_s);
  out["batch_rss_kb"] = std::to_string(batch_rss);
  out["events"] = std::to_string(result.acquire.measured.size());
  out["span"] = std::to_string(eb.approx.span());
  out["total"] = std::to_string(eb.approx.total_time());
  out["plans"] = std::to_string(sites.size());
  out["repaired"] = result.acquire.repaired ? "1" : "0";
  out["whatif_cp_ok"] =
      dag.baseline_critical_path() == cp.length &&
              dag.baseline_makespan() == eb.approx.span()
          ? "1"
          : "0";
  if (eb.quality)
    out["err_pct"] =
        num(std::fabs(eb.quality->approx_over_actual - 1.0) * 100);
  return out;
}

Fields stream_phase(const CorpusFile& f) {
  const core::AnalysisPipeline pipeline(f.options);
  const std::int64_t t0 = now_ns();
  const core::StreamOutcome out = pipeline.run_stream_file(f.measured, false);
  const double stream_s = seconds_since(t0);
  PERTURB_CHECK_MSG(out.ok, f.name + ": " + out.diagnosis);
  Fields fields;
  fields["stream_s"] = num(stream_s);
  fields["events"] = std::to_string(out.measured_events);
  fields["span"] = std::to_string(out.approx_span);
  fields["total"] = std::to_string(out.approx_total);
  fields["hwm"] = std::to_string(out.resident_high_water);
  fields["spills"] = std::to_string(out.spills);
  return fields;
}

// ---- the traced replay -----------------------------------------------------

/// The batch path and what-if rank as the individual public calls the
/// pipeline and the tool make, one span each.
Fields traced_batch_phase(const CorpusFile& f, const Options& o) {
  Tracer tr(true);
  support::Metrics::enable(true);
  const std::int64_t t0 = now_ns();
  const core::PipelineOptions& opt = f.options;
  trace::ValidateOptions vopts;
  vopts.sync_slack = opt.sync_slack;
  support::TaskPool single(1);

  trace::Trace measured;
  std::optional<trace::Trace> actual;
  std::optional<trace::TraceIndex> index;
  core::EventBasedResult eb;
  std::size_t changed = 0;
  {
    Scope pipe(tr, "core.pipeline");
    if (!f.actual.empty()) {
      Scope s(tr, "trace.decode");
      actual = trace::load(f.actual);
      s.work(actual->size());
    }
    if (!f.repair) {
      {
        Scope s(tr, "trace.decode");
        measured = trace::load(f.measured);
        s.work(measured.size());
      }
      {
        Scope s(tr, "trace.index", measured.size());
        index.emplace(measured, single);
      }
      Scope s(tr, "trace.validate", measured.size());
      PERTURB_CHECK_MSG(trace::validate(*index, vopts).empty(),
                        f.name + ": clean trace failed validation");
    } else {
      trace::SalvageReport salvage;
      {
        Scope s(tr, "trace.decode");
        measured = trace::load_salvage(f.measured, salvage);
        s.work(measured.size());
      }
      // The --repair acquisition: triage, then repair whatever it found.
      // Both are charged to the repair layer.
      {
        Scope repair(tr, "trace.repair", measured.size());
        if (!trace::validate(measured, vopts).empty()) {
          trace::RepairOptions ropts;
          ropts.aggressive = opt.repair == core::RepairMode::kAggressive;
          ropts.sync_slack = opt.sync_slack;
          trace::RepairResult repaired = trace::repair(measured, ropts);
          PERTURB_CHECK_MSG(repaired.manifest.severity !=
                                trace::RepairSeverity::kUnsalvageable,
                            f.name + ": repair left violations");
          changed = repaired.manifest.events_dropped +
                    repaired.manifest.events_synthesized +
                    repaired.manifest.events_adjusted;
          measured = std::move(repaired.repaired);
        }
      }
      Scope s(tr, "trace.index", measured.size());
      index.emplace(measured, single);
    }
    pipe.work(measured.size());
    {
      Scope s(tr, "core.eventbased", measured.size());
      eb = core::event_based_approximation(*index, opt.overheads,
                                           opt.event_based);
    }
    trace::Trace tb;
    {
      Scope s(tr, "core.timebased", measured.size());
      tb = core::time_based_approximation(measured, opt.overheads);
    }
    if (actual) {
      Scope s(tr, "core.quality", 2 * measured.size());
      (void)core::assess(measured, eb.approx, *actual);
      (void)core::assess(measured, tb, *actual);
    }
  }
  const trace::Trace& approx = eb.approx;
  {
    analysis::WaitClassifier classifier;
    classifier.await_nowait = opt.overheads.s_nowait;
    classifier.lock_acquire = opt.overheads.lock_acquire;
    classifier.sem_acquire = opt.overheads.sem_acquire;
    classifier.barrier_depart = opt.overheads.barrier_depart;
    classifier.tolerance = 2;
    std::optional<trace::TraceIndex> approx_index;
    {
      Scope s(tr, "trace.index", approx.size());
      approx_index.emplace(approx);
    }
    {
      Scope s(tr, "analysis.waiting", approx.size());
      (void)analysis::render_waiting_table(
          analysis::waiting_analysis(*approx_index, classifier));
    }
    {
      Scope s(tr, "analysis.parallelism", approx.size());
      (void)analysis::parallelism_profile(*approx_index, classifier);
    }
    {
      Scope s(tr, "analysis.critical_path", approx.size());
      (void)analysis::render_critical_path(
          analysis::critical_path(*approx_index));
    }
    Scope s(tr, "trace.index", 0);  // teardown is the index's cost too
    approx_index.reset();
  }
  std::size_t anchors = 0;
  std::size_t plans = 0;
  {
    std::unique_ptr<trace::TraceIndex> widx;
    std::unique_ptr<analysis::SiteRegistry> sites;
    std::unique_ptr<whatif::WhatIfDag> dag;
    {
      Scope s(tr, "whatif.dag_build", approx.size());
      widx = std::make_unique<trace::TraceIndex>(approx);
      sites = std::make_unique<analysis::SiteRegistry>(*widx);
      dag = std::make_unique<whatif::WhatIfDag>(*widx, *sites);
    }
    anchors = dag->num_anchors();
    plans = sites->size();
    {
      Scope s(tr, "whatif.sweep", plans);
      whatif::WhatIfEngine engine(*dag);
      support::TaskPool pool(o.threads);
      (void)engine.rank(50, pool, plans);
    }
    Scope s(tr, "whatif.dag_build", 0);  // so is the DAG's teardown
    dag.reset();
    sites.reset();
    widx.reset();
  }
  const double wall_s = seconds_since(t0);
  const support::MetricsSnapshot snap = support::Metrics::snapshot();

  Fields out;
  out["wall_s"] = num(wall_s);
  out["spans"] = pack_lines(tr.serialize());
  out["span"] = std::to_string(approx.span());
  out["total"] = std::to_string(approx.total_time());
  out["changed"] = std::to_string(changed);
  out["anchors"] = std::to_string(anchors);
  out["plans"] = std::to_string(plans);
  out["memo_hits"] = std::to_string(counter_value(snap, "whatif.memo.hits"));
  return out;
}

/// Folds retired events into the approximated span and total, resolving
/// program markers in merged-trace order (the pipeline's summary sink).
class TotalsSink final : public core::StreamSink {
 public:
  void on_segment(trace::ProcId, const core::RetimedEvent* events,
                  std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) {
      const trace::Event& e = events[i].event;
      const std::pair<trace::Tick, std::size_t> key{e.time, events[i].index};
      if (count_ == 0 || e.time < min_) min_ = e.time;
      if (count_ == 0 || e.time > max_) max_ = e.time;
      ++count_;
      if (e.kind == trace::EventKind::kProgramBegin &&
          (!have_begin_ || key < begin_)) {
        have_begin_ = true;
        begin_ = key;
      }
      if (e.kind == trace::EventKind::kProgramEnd &&
          (!have_end_ || key > end_)) {
        have_end_ = true;
        end_ = key;
      }
    }
  }
  trace::Tick span() const { return count_ == 0 ? 0 : max_ - min_; }
  trace::Tick total() const {
    return have_begin_ && have_end_ ? end_.first - begin_.first : span();
  }

 private:
  std::size_t count_ = 0;
  trace::Tick min_ = 0;
  trace::Tick max_ = 0;
  bool have_begin_ = false;
  bool have_end_ = false;
  std::pair<trace::Tick, std::size_t> begin_{};
  std::pair<trace::Tick, std::size_t> end_{};
};

/// The streamed path as its public calls: buffered reads fed to a
/// ChunkReader, each decoded chunk pushed into the windowed reconstructor.
Fields traced_stream_phase(const CorpusFile& f) {
  Tracer tr(true);
  const std::int64_t t0 = now_ns();
  const core::PipelineOptions& opt = f.options;
  TotalsSink totals;
  std::size_t events = 0;
  std::size_t hwm = 0;
  std::uint64_t spills = 0;
  {
    std::FILE* file = nullptr;
    std::optional<trace::ChunkReader> reader;
    {
      Scope s(tr, "trace.chunk_decode");
      file = std::fopen(f.measured.c_str(), "rb");
      PERTURB_CHECK_MSG(file != nullptr, "cannot open " + f.measured);
      reader.emplace(opt.repair != core::RepairMode::kOff);
    }
    std::optional<core::StreamingReconstructor> recon;
    {
      Scope s(tr, "core.stream");
      recon.emplace(opt.overheads, opt.event_based, opt.stream_window,
                    totals);
    }
    std::vector<trace::Event> chunk;
    std::vector<char> buffer(256 * 1024);
    bool eof = false;
    for (;;) {
      for (;;) {
        trace::ChunkReader::Status status;
        {
          Scope s(tr, "trace.chunk_decode");
          status = reader->next(chunk);
          if (status == trace::ChunkReader::Status::kChunk)
            s.work(chunk.size());
        }
        if (status != trace::ChunkReader::Status::kChunk) break;
        events += chunk.size();
        Scope s(tr, "core.stream", chunk.size());
        recon->push(chunk);
      }
      if (eof) break;
      Scope s(tr, "trace.chunk_decode");
      const std::size_t got =
          std::fread(buffer.data(), 1, buffer.size(), file);
      if (got > 0) reader->feed(buffer.data(), got);
      if (got < buffer.size()) {
        reader->finish();
        eof = true;
      }
    }
    {
      Scope s(tr, "core.stream");
      (void)recon->finish();
      hwm = recon->resident_high_water();
      spills = recon->segments_spilled();
      recon.reset();
    }
    Scope s(tr, "trace.chunk_decode");
    std::fclose(file);
    reader.reset();
  }
  Fields out;
  out["wall_s"] = num(seconds_since(t0));
  out["spans"] = pack_lines(tr.serialize());
  out["events"] = std::to_string(events);
  out["span"] = std::to_string(totals.span());
  out["total"] = std::to_string(totals.total());
  out["hwm"] = std::to_string(hwm);
  out["spills"] = std::to_string(spills);
  return out;
}

/// Fields of a child phase, or an empty map after recording the failure.
Fields child_fields(Report& report, const std::string& what,
                    const std::function<Fields()>& work,
                    std::int64_t* rss_kb = nullptr) {
  const ChildResult r =
      run_child([&] { return encode_fields(work()); });
  report.op(r.ok, what + (r.ok ? "" : ": " + r.error));
  if (!r.ok) return {};
  if (rss_kb != nullptr) *rss_kb = r.rss_kb;
  return decode_fields(r.payload);
}

}  // namespace

void run_offline(const Options& o, Report& report) {
  ::mkdir(o.workdir.c_str(), 0755);
  const Corpus corpus = corpus_layout(o);
  const auto& files = corpus.files;
  std::vector<Span> spans;

  // Set-up: the corpus is generated from scratch kSetupReps times (each in
  // a child, so the parent never holds the traces) and the median reported.
  // A traced run builds the corpus once, with spans.
  const double setup_s = timed_setups(o.trace ? 1 : kSetupReps, [&] {
    const ChildResult r =
        run_child([&] { return build_corpus(corpus, o, o.trace); });
    report.op(r.ok, "corpus set-up" + (r.ok ? "" : ": " + r.error));
    spans.clear();
    Tracer::append(spans, r.payload);
  });
  const std::int64_t null_kb = null_child_rss_kb();

  std::vector<double> pass_events;         // measured events per pass
  std::vector<double> pass_stream_events;  // of which streamed
  std::vector<double> batch_secs, stream_secs, whatif_secs, workflow_secs;
  std::vector<double> pass_p50_ms, pass_p99_ms, rss_batch_mb, rss_stream_mb;
  std::vector<double> errors;
  std::vector<double> traced_walls;
  std::vector<double> pipeline_self_ns, changed, hwm, spill_counts, anchors;
  std::vector<double> memo_ratio;
  double covered_ns = 0;
  double traced_ns = 0;

  const std::int64_t start = now_ns();
  std::int64_t pass_start = start;
  // A traced run alternates untraced and traced passes (the overhead is
  // their difference) and makes at least one of each.  Passes last ten
  // seconds or more, so another one starts only if a pass as long as the
  // last still fits in --seconds.
  const int min_passes = o.trace ? 2 : 1;
  for (int pass = 0;
       pass < min_passes ||
       seconds_since(start) + seconds_since(pass_start) <= o.seconds;
       ++pass) {
    pass_start = now_ns();
    const bool traced_pass = o.trace && pass % 2 == 1;
    double events = 0, stream_events = 0, batch = 0, stream = 0, whatif = 0;
    double max_batch_mb = 0, max_stream_mb = 0;
    double pass_self = 0, pass_changed = 0, pass_hwm = 0, pass_spills = 0;
    double pass_anchors = 0, hits = 0, plans = 0, wall = 0;
    std::vector<double> latencies_ms;  // per file: batch + stream + what-if
    for (const CorpusFile& f : files) {
      if (traced_pass) {
        const Fields b = child_fields(report, f.name + " traced batch",
                                      [&] { return traced_batch_phase(f, o); });
        const Fields s =
            f.streamed
                ? child_fields(report, f.name + " traced stream",
                               [&] { return traced_stream_phase(f); })
                : Fields{};
        if (b.empty() || (f.streamed && s.empty())) continue;
        std::vector<Span> mine;
        Tracer::append(mine, unpack_lines(b.at("spans")));
        if (f.streamed) Tracer::append(mine, unpack_lines(s.at("spans")));
        Tracer::append(spans, mine);
        const auto totals = layer_totals(mine);
        for (const char* layer : kPassLayers)
          if (const auto it = totals.find(layer); it != totals.end())
            covered_ns += static_cast<double>(it->second.self_ns);
        if (const auto it = totals.find("core.pipeline"); it != totals.end())
          pass_self += static_cast<double>(it->second.self_ns);
        const double w = field_num(b, "wall_s") +
                         (f.streamed ? field_num(s, "wall_s") : 0.0);
        traced_ns += w * 1e9;
        wall += w;
        pass_changed += field_num(b, "changed");
        pass_anchors += field_num(b, "anchors");
        hits += field_num(b, "memo_hits");
        plans += field_num(b, "plans");
        if (!f.streamed) continue;
        report.op(b.at("span") == s.at("span") &&
                      b.at("total") == s.at("total"),
                  f.name + ": traced stream totals differ from traced batch");
        pass_hwm = std::max(pass_hwm, field_num(s, "hwm"));
        continue;
      }
      std::int64_t batch_kb = 0, stream_kb = 0;
      const Fields b = child_fields(
          report, f.name + " batch+whatif",
          [&] { return batch_phase(f, o); }, &batch_kb);
      const Fields s =
          f.streamed ? child_fields(
                           report, f.name + " stream",
                           [&] { return stream_phase(f); }, &stream_kb)
                     : Fields{};
      if (b.empty() || (f.streamed && s.empty())) continue;
      events += field_num(b, "events");
      batch += field_num(b, "batch_s");
      whatif += field_num(b, "whatif_s");
      max_batch_mb = std::max(
          max_batch_mb,
          (field_num(b, "batch_rss_kb") - static_cast<double>(null_kb)) /
              1024);
      if (pass == 0 && b.count("err_pct"))
        errors.push_back(field_num(b, "err_pct"));
      report.op(b.at("whatif_cp_ok") == "1",
                f.name + ": what-if baseline != analysis::critical_path");
      // Dropped events must leave violations that repair fixes.
      report.op(f.streamed || b.at("repaired") == "1",
                f.name + ": the faulted file was not repaired");
      if (!f.streamed) {
        latencies_ms.push_back(
            1e3 * (field_num(b, "batch_s") + field_num(b, "whatif_s")));
        continue;
      }
      stream_events += field_num(s, "events");
      stream += field_num(s, "stream_s");
      latencies_ms.push_back(1e3 * (field_num(b, "batch_s") +
                                    field_num(s, "stream_s") +
                                    field_num(b, "whatif_s")));
      max_stream_mb = std::max(
          max_stream_mb, static_cast<double>(stream_kb - null_kb) / 1024);

      // Output check: streamed == batch.
      std::string stream_total = s.at("total");
      if (o.break_check == "stream_total")
        stream_total = std::to_string(std::stoll(stream_total) + 1);
      report.op(s.at("span") == b.at("span") && stream_total == b.at("total"),
                f.name + ": streamed approx span/total " + s.at("span") +
                    "/" + stream_total + " != batch " + b.at("span") + "/" +
                    b.at("total"));
      report.op(b.at("events") == s.at("events"),
                f.name + ": streamed event count differs from batch");
    }
    if (traced_pass) {
      traced_walls.push_back(wall);
      pipeline_self_ns.push_back(pass_self);
      changed.push_back(pass_changed);
      hwm.push_back(pass_hwm);
      spill_counts.push_back(pass_spills);
      anchors.push_back(pass_anchors);
      memo_ratio.push_back(plans > 0 ? hits / plans : 0);
      continue;
    }
    if (events == 0) continue;
    pass_events.push_back(events);
    pass_stream_events.push_back(stream_events);
    batch_secs.push_back(batch);
    stream_secs.push_back(stream);
    whatif_secs.push_back(whatif);
    workflow_secs.push_back(batch + stream + whatif);
    pass_p50_ms.push_back(quantile(latencies_ms, 0.5));
    pass_p99_ms.push_back(quantile(latencies_ms, 0.99));
    rss_batch_mb.push_back(max_batch_mb);
    rss_stream_mb.push_back(max_stream_mb);
  }

  std::vector<double> events_per_s;
  for (std::size_t p = 0; p < pass_events.size(); ++p)
    events_per_s.push_back(pass_events[p] / workflow_secs[p]);
  double error_sum = 0;
  for (const double e : errors) error_sum += e;
  const double mean_error = errors.empty() ? 0 : error_sum / double(errors.size());

  std::vector<double> batch_meps, stream_meps;
  for (std::size_t p = 0; p < pass_events.size(); ++p) {
    batch_meps.push_back(pass_events[p] / batch_secs[p] / 1e6);
    stream_meps.push_back(pass_stream_events[p] / stream_secs[p] / 1e6);
  }
  std::printf("offline corpus: %zu files, %.0f measured events, %zu "
              "untraced passes (medians over passes)\n",
              files.size(), pass_events.empty() ? 0.0 : pass_events[0],
              pass_events.size());

  if (!o.trace) {
    report.values["setup_s"] = setup_s;
    report.values["throughput_per_s"] = median(events_per_s);
    report.values["latency_p50_ms"] = median(pass_p50_ms);
    report.values["latency_p99_ms"] = median(pass_p99_ms);
    report.values["peak_rss_mb"] = median(rss_batch_mb);
    report.values["recon_error_pct"] = mean_error;
    report.add_detail("analyze_batch_meps", median(batch_meps), "Mevent/s",
                      "higher");
    report.add_detail("analyze_stream_meps", median(stream_meps), "Mevent/s",
                      "higher");
    report.add_detail("whatif_rank_s", median(whatif_secs), "s", "lower");
    report.add_detail("peak_rss_stream_mb", median(rss_stream_mb), "MB",
                      "lower");
    return;
  }

  const auto totals = layer_totals(spans);
  for (const char* layer :
       {"trace.decode", "trace.validate", "trace.index", "trace.chunk_decode",
        "trace.repair", "trace.write", "sim.simulate", "core.eventbased",
        "core.timebased", "core.quality", "core.stream",
        "analysis.critical_path", "analysis.waiting", "analysis.parallelism",
        "whatif.dag_build"})
    report.values[std::string(layer) + ".ns_per_event"] =
        ns_per_unit(totals, layer);
  report.values["whatif.sweep.ns_per_plan"] =
      ns_per_unit(totals, "whatif.sweep");
  report.values["workload.synthesize.ns_per_cell"] =
      ns_per_unit(totals, "workload.synthesize");
  report.values["trace.repair.events_changed"] = median(changed);
  report.values["core.stream.resident_hwm_events"] = median(hwm);
  report.values["core.stream.spills"] = median(spill_counts);
  report.values["core.pipeline.self_ns"] = median(pipeline_self_ns);
  report.values["whatif.dag.anchors"] = median(anchors);
  report.values["whatif.memo_hit_ratio"] = median(memo_ratio);

  const double coverage = traced_ns > 0 ? covered_ns / traced_ns : 0;
  report.values["tracing.coverage"] = coverage;
  report.op(coverage >= kMinCoverage,
            "traced offline pass covers only " + std::to_string(coverage) +
                " of its wall time with layer spans (need >= 0.95)");
  const double untraced = median(workflow_secs);
  report.values["tracing.overhead_pct"] =
      untraced > 0 ? (median(traced_walls) - untraced) / untraced * 100 : 0;
  report.add_detail("tracing.traced_wall_s", median(traced_walls), "s",
                    "lower");
  report.add_detail("tracing.untraced_wall_s", untraced, "s", "lower");
  write_spans(o.workdir + "/spans-offline.jsonl", spans);
  measure_server_layers(o, report);
}

}  // namespace perfbench
