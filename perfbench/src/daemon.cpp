// The server layers — an open-loop job stream into perturb-server, run at
// the end of the traced offline run.
//
// The server runs in a forked child (2 workers); this process is the single
// client, with 2 connections.  Nine in ten jobs are small inline jobs (lfk17
// n=800 and the workload families in rotation); every tenth is a chunked
// stream job of a larger trace.  Jobs are due at a fixed rate and timed from
// when they were due, so a stalled generator charges its delay to the jobs
// behind it.  Every reply must equal the in-process AnalysisPipeline result
// for the same trace.
//
// The stream measures only the server.* per-layer metrics.  It has no
// end-to-end metrics of its own: as a workload, its latencies and capacity
// swung by 25-50% between runs on the shared machine the benchmark was
// introduced on while offline and sweep, run in the same minutes, did not
// (perfbench/README.md).
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <optional>
#include <sstream>
#include <thread>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"
#include "experiments/experiments.hpp"
#include "loops/programs.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "sim/engine.hpp"
#include "support/check.hpp"
#include "support/text.hpp"
#include "trace/io.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using namespace perturb;

/// Open-loop offered load, jobs/s.  A constant, so every commit is offered
/// the same load; below half the slowest closed-loop capacity of this mix
/// measured when the benchmark was introduced (see perfbench/README.md).
constexpr double kRateJps = 150.0;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kChunkedEvery = 10;
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr double kStreamSeconds = 5.0;

struct JobKind {
  std::string name;
  std::string payload;  ///< binary v2 image of the measured trace
  bool chunked = false;
  std::string expected;  ///< in-process reply summary
  std::size_t events = 0;
};

/// The server's reply summary for a successful job (server.cpp renders the
/// same fields); the reply check compares against it byte for byte.
std::string render_summary(const core::PipelineResult& result) {
  std::string out = support::strf(
      "acquire events=%zu salvaged=%d repaired=%d degraded=%d\n",
      result.acquire.measured.size(), int(result.acquire.salvaged),
      int(result.acquire.repaired), int(result.acquire.degraded));
  for (const auto& output : result.outputs)
    out += support::strf("analyzer=%s events=%zu span=%lld\n",
                         output.analyzer.c_str(), output.approx.size(),
                         static_cast<long long>(output.approx.span()));
  return out;
}

core::AnalysisPipeline job_pipeline() {
  core::PipelineOptions options = analysis_options();
  options.threads = 1;
  core::AnalysisPipeline pipeline(std::move(options));
  pipeline.add(core::AnalyzerKind::kTimeBased)
      .add(core::AnalyzerKind::kEventBased);
  return pipeline;
}

/// Each source is simulated under kVariants probe-jitter seeds, so the job
/// stream carries distinct traces of every kind.
constexpr std::uint64_t kVariants = 8;

std::vector<JobKind> build_job_kinds(const Options& o) {
  struct Source {
    std::string name;
    sim::Program program;
    std::optional<workload::WorkloadSpec> spec;
    bool chunked;
  };
  std::vector<Source> sources;
  sources.push_back({"lfk17-n800",
                     loops::make_concurrent_ir(17, 800, sim::Schedule::kCyclic),
                     std::nullopt, false});
  for (const auto family :
       {workload::Family::kPareto, workload::Family::kLognormal,
        workload::Family::kContention, workload::Family::kIrregular,
        workload::Family::kBursty}) {
    workload::WorkloadSpec spec;
    spec.family = family;
    spec.seed = 7;  // pinned: structure fixed, probe jitter follows --seed
    spec.params = workload::default_params(family);
    spec.params.trip = 400;
    sources.push_back({workload::workload_name(spec),
                       workload::make_program(spec), spec, false});
  }
  sources.push_back({"lfk3-chunked",
                     loops::make_concurrent_ir(3, o.small ? 1000 : 6000,
                                               sim::Schedule::kCyclic),
                     std::nullopt, true});

  const core::AnalysisPipeline pipeline = job_pipeline();
  std::vector<JobKind> kinds;
  for (std::uint64_t v = 0; v < kVariants; ++v) {
    experiments::Setup setup;
    setup.seed = 1991 + o.seed * kVariants + v;
    const instr::InstrumentationPlan plan =
        experiments::make_plan(experiments::PlanKind::kFull, setup);
    for (const Source& s : sources) {
      const trace::Trace measured = [&] {
        if (s.spec && workload::has_interference(*s.spec)) {
          const workload::InterferenceHook hook(plan, *s.spec);
          return sim::simulate(setup.machine, s.program, hook,
                               s.name + "/measured");
        }
        return sim::simulate(setup.machine, s.program, plan,
                             s.name + "/measured");
      }();
      JobKind kind;
      kind.name = s.name + "/" + std::to_string(v);
      kind.chunked = s.chunked;
      kind.events = measured.size();
      std::ostringstream image;
      trace::write_binary(image, measured);
      kind.payload = image.str();
      const core::PipelineResult result = pipeline.run(
          trace::read_binary(kind.payload.data(), kind.payload.size()));
      PERTURB_CHECK_MSG(result.acquire.ok,
                        kind.name + ": " + result.acquire.diagnosis);
      kind.expected = render_summary(result);
      kinds.push_back(std::move(kind));
    }
  }
  return kinds;
}

/// The job traces and the order jobs cycle through them: every
/// kChunkedEvery-th job is a chunked one; the rest rotate through the small
/// traces (stored variant by variant, so consecutive small jobs change
/// source) from a seed-chosen offset.
struct JobMix {
  std::vector<JobKind> kinds;
  std::vector<std::size_t> small, chunked;

  explicit JobMix(std::vector<JobKind> all) : kinds(std::move(all)) {
    for (std::size_t i = 0; i < kinds.size(); ++i)
      (kinds[i].chunked ? chunked : small).push_back(i);
  }
  std::size_t pick(std::uint64_t k, std::uint64_t seed) const {
    if (k % kChunkedEvery == kChunkedEvery - 1)
      return chunked[(k / kChunkedEvery) % chunked.size()];
    const std::uint64_t nth = k - k / kChunkedEvery;
    return small[(nth + seed) % small.size()];
  }
};

// ---- the server process ----------------------------------------------------

/// perturb-server with kWorkers workers in a forked child.  Closing the
/// control pipe drains and stops it.
class ServerProcess {
 public:
  explicit ServerProcess(const std::string& socket_path) {
    int control[2];
    int result[2];
    PERTURB_CHECK_MSG(::pipe(control) == 0 && ::pipe(result) == 0,
                      "pipe failed");
    std::fflush(stdout);
    pid_ = ::fork();
    PERTURB_CHECK_MSG(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      ::close(control[1]);
      ::close(result[0]);
      char status = 'E';
      try {
        server::ServerConfig config;
        config.socket_path = socket_path;
        config.workers = kWorkers;
        config.pipeline = analysis_options();
        server::PerturbServer daemon(std::move(config));
        daemon.start();
        const char ready = 'R';
        if (::write(result[1], &ready, 1) != 1) ::_exit(1);
        char c = 0;
        while (::read(control[0], &c, 1) < 0 && errno == EINTR) {
        }
        daemon.shutdown();
        status = 'K';
      } catch (...) {
      }
      ::_exit(::write(result[1], &status, 1) == 1 ? 0 : 1);
    }
    ::close(control[0]);
    ::close(result[1]);
    control_fd_ = control[1];
    result_fd_ = result[0];
    char ready = 0;
    ssize_t got = 0;
    while ((got = ::read(result_fd_, &ready, 1)) < 0 && errno == EINTR) {
    }
    if (got != 1 || ready != 'R') {
      stop();
      PERTURB_CHECK_MSG(false, "server process failed to start");
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Drains the server and waits for it; true when it drained cleanly.
  bool stop() {
    if (pid_ <= 0) return drained_;
    ::close(control_fd_);
    char status = 0;
    drained_ = ::read(result_fd_, &status, 1) == 1 && status == 'K';
    ::close(result_fd_);
    int wstatus = 0;
    while (::waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return drained_;
  }

 private:
  pid_t pid_ = -1;
  int control_fd_ = -1;
  int result_fd_ = -1;
  bool drained_ = false;
};

// ---- load generation -------------------------------------------------------

struct JobRecord {
  std::int64_t due = 0;   ///< ns
  std::int64_t sent = 0;  ///< ns
  std::int64_t done = 0;  ///< ns
  std::size_t kind = 0;
  server::JobStatus status = server::JobStatus::kInternalError;
  std::uint32_t attempts = 0;
  bool matches = false;  ///< reply equals the in-process result
};

/// Sends jobs on the connections for kStreamSeconds: job k is due at start
/// + k / kRateJps, and a connection sleeps until its next job is due.  Adds
/// one span per job, carrying the job id, to `spans`.
std::vector<JobRecord> drive(std::vector<server::Client>& clients,
                             const JobMix& mix, std::uint64_t seed,
                             std::vector<Span>& spans,
                             const std::string& break_check) {
  const auto planned = static_cast<std::size_t>(kRateJps * kStreamSeconds);
  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<JobRecord>> per_conn(clients.size());
  std::vector<Tracer> tracers(clients.size(), Tracer(true));
  const std::int64_t start = now_ns();
  std::vector<std::thread> senders;
  for (std::size_t c = 0; c < clients.size(); ++c)
    senders.emplace_back([&, c] {
      for (std::uint64_t k; (k = next.fetch_add(1)) < planned;) {
        JobRecord rec;
        rec.due = start + static_cast<std::int64_t>(
                              static_cast<double>(k) * 1e9 / kRateJps);
        const std::int64_t wait = rec.due - now_ns();
        if (wait > 0)
          std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        rec.kind = mix.pick(k, seed);
        const JobKind& kind = mix.kinds[rec.kind];
        server::JobRequest request;
        request.job_id = k + 1;
        request.analyzers = server::kMaskTimeBased | server::kMaskEventBased;
        request.payload = kind.payload;
        server::JobReply reply;
        rec.sent = now_ns();
        try {
          Scope span(tracers[c], "server.round_trip", kind.events,
                     request.job_id);
          reply = kind.chunked
                      ? clients[c].call_stream(request, kChunkBytes)
                      : clients[c].call(request);
        } catch (const std::exception&) {
          reply.status = server::JobStatus::kIoError;
        }
        rec.done = now_ns();
        rec.status = reply.status;
        rec.attempts = reply.attempts;
        std::string detail = reply.detail;
        if (break_check == "server_reply" && k == 3) detail += "x";
        rec.matches = reply.status == server::JobStatus::kOk &&
                      detail == kind.expected;
        per_conn[c].push_back(rec);
      }
    });
  for (auto& t : senders) t.join();
  std::vector<JobRecord> jobs;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    jobs.insert(jobs.end(), per_conn[c].begin(), per_conn[c].end());
    Tracer::append(spans, tracers[c].spans());
  }
  return jobs;
}

/// In-process timing of one job kind through the same pipeline call the
/// worker makes, median of `reps`.
double inprocess_seconds(const JobKind& kind, int reps) {
  const core::AnalysisPipeline pipeline = job_pipeline();
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    const core::PipelineResult result = pipeline.run(
        trace::read_binary(kind.payload.data(), kind.payload.size()));
    secs.push_back(seconds_since(t0));
    PERTURB_CHECK_MSG(result.acquire.ok, "in-process job failed");
  }
  return median(secs);
}

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

void measure_server_layers(const Options& o, Report& report) {
  ::mkdir(o.workdir.c_str(), 0755);
  const std::string socket_path =
      o.workdir + "/daemon-" + std::to_string(::getpid()) + ".sock";
  ::signal(SIGPIPE, SIG_IGN);

  const JobMix mix(build_job_kinds(o));
  std::vector<double> inproc_ms;
  for (const JobKind& k : mix.kinds)
    inproc_ms.push_back(1e3 * inprocess_seconds(k, 5));

  ServerProcess server_proc(socket_path);
  std::vector<server::Client> clients;
  for (std::size_t c = 0; c < kConnections; ++c)
    clients.emplace_back(socket_path);
  // One job of every trace first: it confirms the server answers like the
  // library and warms the server before the timed stream.
  std::uint64_t warm_id = 1u << 30;
  for (const JobKind& kind : mix.kinds) {
    server::JobRequest request;
    request.job_id = ++warm_id;
    request.payload = kind.payload;
    const server::JobReply reply =
        kind.chunked ? clients[0].call_stream(request, kChunkBytes)
                     : clients[0].call(request);
    report.op(reply.status == server::JobStatus::kOk &&
                  reply.detail == kind.expected,
              "warm-up job " + kind.name + ": " +
                  server::status_name(reply.status));
  }
  std::vector<Span> spans;
  const std::vector<JobRecord> jobs =
      drive(clients, mix, o.seed, spans, o.break_check);
  clients.clear();
  report.op(server_proc.stop(), "server process did not drain cleanly");

  std::vector<double> late, round_trip, overhead;
  std::size_t shed = 0;
  double retries = 0;
  for (const JobRecord& j : jobs) {
    report.op(j.matches, "job " + mix.kinds[j.kind].name + " " +
                             server::status_name(j.status) +
                             (j.matches ? "" : " (reply differs)"));
    late.push_back(ms(j.sent - j.due));
    round_trip.push_back(ms(j.done - j.sent));
    overhead.push_back(ms(j.done - j.sent) - inproc_ms[j.kind]);
    if (j.status == server::JobStatus::kRejectedOverload) ++shed;
    if (j.attempts > 1) retries += j.attempts - 1;
  }
  std::printf("server jobs: %zu job traces, %zu jobs at %.0f jobs/s\n",
              mix.kinds.size(), jobs.size(), kRateJps);
  report.values["server.round_trip_ms"] = median(round_trip);
  report.values["server.overhead_ms"] = median(overhead);
  report.values["server.shed_ratio"] =
      jobs.empty() ? 0 : double(shed) / double(jobs.size());
  report.values["server.retries"] = retries;
  report.values["server.gen_late_ms"] = quantile(late, 0.99);
  write_spans(o.workdir + "/spans-server.jsonl", spans);
}

}  // namespace perfbench
