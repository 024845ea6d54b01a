#include "server/server.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <unistd.h>

#include "server/protocol.hpp"
#include "server/socket.hpp"
#include "support/cancel.hpp"
#include "support/metrics.hpp"
#include "support/prng.hpp"
#include "support/text.hpp"
#include "trace/chunk_reader.hpp"
#include "trace/io.hpp"

namespace perturb::server {

namespace {

using Clock = std::chrono::steady_clock;
using support::strf;

// Self-observability: the daemon's health at a glance.  Counters tally every
// terminal status; histograms split a job's life into queue wait and service
// time so saturation (wait grows, service flat) is distinguishable from slow
// jobs (service grows).
const support::Counter kJobsReceived("server.jobs.received");
const support::Counter kJobsAccepted("server.jobs.accepted");
const support::Counter kJobsOk("server.jobs.ok");
const support::Counter kShedOverload("server.shed.overload");
const support::Counter kShedShutdown("server.shed.shutdown");
const support::Counter kDeadlineExceeded("server.jobs.deadline_exceeded");
const support::Counter kCancelledDrain("server.jobs.cancelled_drain");
const support::Counter kInvalidTrace("server.jobs.invalid_trace");
const support::Counter kJobIoError("server.jobs.io_error");
const support::Counter kInternalErrors("server.jobs.internal_error");
const support::Counter kBadRequests("server.jobs.bad_request");
const support::Counter kRetries("server.retries");
const support::Counter kFaultsInjected("server.faults.injected");
const support::Counter kStreamsOpened("server.streams.opened");
const support::Counter kStreamChunks("server.streams.chunks");
const support::HistogramMetric kQueueWaitNs("server.queue_wait.ns");
const support::HistogramMetric kServiceNs("server.service.ns");
const support::Gauge kQueueDepthMax("server.queue.depth.max");
const support::Gauge kInflightBytesMax("server.inflight.bytes.max");

std::uint64_t elapsed_ns(Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           since)
          .count());
}

/// One accepted connection.  Replies are serialized under `write_mutex`; the
/// fd is closed only once the reader has exited AND no in-flight job still
/// needs to reply (release()), so a worker never writes into a recycled fd.
struct Connection {
  Fd fd;
  std::mutex write_mutex;
  std::atomic<std::size_t> pending{0};  ///< admitted jobs not yet replied
  std::atomic<bool> reader_done{false};

  explicit Connection(Fd sock) : fd(std::move(sock)) {}

  void send_reply(const JobReply& reply) {
    const std::string payload = encode_reply(reply);
    const std::lock_guard<std::mutex> lock(write_mutex);
    if (fd.valid()) send_frame(fd.get(), payload);
    // A send failure means the client went away; the job's work is done
    // either way and the reader will observe the closed peer.
  }

  /// Closes the fd once both the reader and all in-flight jobs are done.
  void release() {
    const std::lock_guard<std::mutex> lock(write_mutex);
    if (reader_done.load(std::memory_order_acquire) &&
        pending.load(std::memory_order_acquire) == 0)
      fd.close();
  }
};

/// Prebuilt state of a chunked job, assembled by the reader as CHUNK frames
/// arrived: the decoded events, the incrementally built index, and the
/// chunk-level salvage provenance.  The worker seals the builder into the
/// shared TraceIndex instead of re-indexing from scratch.
struct StreamJobState {
  trace::TraceInfo info;
  std::vector<trace::Event> events;
  trace::IncrementalTraceIndex builder;
  bool salvaged = false;
  trace::SalvageReport report;
};

struct Job {
  JobRequest request;
  std::shared_ptr<Connection> conn;
  Clock::time_point admitted;
  std::size_t charged_bytes = 0;  ///< in-flight byte refund at completion
  std::unique_ptr<StreamJobState> stream;  ///< chunked job; null for inline
};

/// One stream the reader is accumulating between OPEN and CLOSE.
struct OpenStream {
  JobRequest open;             ///< options frame; its flags/payload ride here
  Clock::time_point admitted;  ///< deadline anchor (transfer time counts)
  trace::ChunkReader reader;
  std::unique_ptr<StreamJobState> state;
  std::size_t charged = 0;  ///< bytes charged against the in-flight budget

  OpenStream(JobRequest request, bool salvage)
      : open(std::move(request)),
        admitted(Clock::now()),
        reader(salvage),
        state(std::make_unique<StreamJobState>()) {}
};

/// Per-worker reusable state; jobs never share any of it.
struct WorkerState {
  support::CancelToken token;
};

constexpr std::uint8_t kKnownRequestFlags = kFlagPayloadIsPath | kFlagPoison |
                                            kFlagStreamOpen | kFlagStreamChunk |
                                            kFlagStreamClose;
constexpr std::uint8_t kStreamFlags =
    kFlagStreamOpen | kFlagStreamChunk | kFlagStreamClose;

}  // namespace

struct PerturbServer::Impl {
  ServerConfig config;

  Fd listen_fd;
  std::thread listener;
  std::vector<std::thread> workers;
  std::vector<std::unique_ptr<WorkerState>> worker_states;

  std::mutex conn_mutex;
  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<std::thread> readers;

  std::mutex queue_mutex;
  std::condition_variable queue_cv;    ///< workers wait for jobs
  std::condition_variable drained_cv;  ///< shutdown waits for quiescence
  std::deque<Job> queue;
  std::size_t inflight_bytes = 0;  ///< queued + running payload bytes
  std::size_t busy_workers = 0;

  std::atomic<bool> started{false};
  std::atomic<bool> draining{false};     ///< stop admitting
  std::atomic<bool> hard_cancel{false};  ///< drain budget spent: shed queue
  std::atomic<bool> stopping{false};     ///< workers exit once queue empties

  explicit Impl(ServerConfig cfg) : config(std::move(cfg)) {}

  // ---- job execution (worker side) ---------------------------------------

  /// Deterministic result summary: depends only on the request and the
  /// pipeline output, never on timing or worker identity.
  static std::string render_summary(const core::PipelineResult& result) {
    std::string out = strf(
        "acquire events=%zu salvaged=%d repaired=%d degraded=%d\n",
        result.acquire.measured.size(), int(result.acquire.salvaged),
        int(result.acquire.repaired), int(result.acquire.degraded));
    for (const auto& output : result.outputs) {
      out += strf("analyzer=%s events=%zu span=%lld\n", output.analyzer.c_str(),
                  output.approx.size(),
                  static_cast<long long>(output.approx.span()));
      if (output.distribution.has_value())
        out += strf("  likely samples=%zu median=%lld p95=%lld\n",
                    output.distribution->loop_times.size(),
                    static_cast<long long>(output.distribution->median),
                    static_cast<long long>(output.distribution->p95));
    }
    return out;
  }

  core::AnalysisPipeline build_pipeline(const JobRequest& request,
                                        WorkerState& state) const {
    core::PipelineOptions options = config.pipeline;
    options.threads = 1;  // parallelism comes from sharding jobs, not phases
    options.cancel = &state.token;
    options.repair = static_cast<core::RepairMode>(request.repair);
    if (request.likely_samples != 0)
      options.likely_samples = request.likely_samples;
    core::AnalysisPipeline pipeline(std::move(options));
    // Fixed registration order keeps output order (and thus reply bytes)
    // independent of everything but the mask.
    if (request.analyzers & kMaskTimeBased)
      pipeline.add(core::AnalyzerKind::kTimeBased);
    if (request.analyzers & kMaskEventBased)
      pipeline.add(core::AnalyzerKind::kEventBased);
    if (request.analyzers & kMaskLiberal)
      pipeline.add(core::AnalyzerKind::kLiberal);
    if (request.analyzers & kMaskLikely)
      pipeline.add(core::AnalyzerKind::kLikely);
    return pipeline;
  }

  core::PipelineResult run_job(const Job& job, WorkerState& state) const {
    const JobRequest& request = job.request;
    const core::AnalysisPipeline pipeline = build_pipeline(request, state);
    if (job.stream != nullptr) {
      // Chunked job: the reader already decoded the trace and built the
      // incremental index; seal and analyze.  Copies (not moves) the state,
      // since execute() may retry this job after an injected fault.
      StreamJobState& s = *job.stream;
      trace::Trace measured(s.info);
      measured.events() = s.events;
      core::PipelineResult result =
          pipeline.run_sealed(std::move(measured), s.builder);
      // Salvage provenance comes from the reader's chunk decode, which the
      // worker's acquisition path never saw.
      result.acquire.salvaged = s.salvaged;
      result.acquire.salvage = s.report;
      result.acquire.degraded |= s.salvaged;
      return result;
    }
    if (request.flags & kFlagPayloadIsPath)
      return pipeline.run_file(request.payload);
    // Inline payloads are binary trace images (the compact format clients
    // already have on disk or produce from the simulator), loaded like the
    // file they would be: strict, or salvaged when the job repairs.
    return pipeline.run_image(request.payload.data(), request.payload.size());
  }

  JobReply execute(const Job& job, WorkerState& state) const {
    const JobRequest& request = job.request;
    JobReply reply;
    reply.job_id = request.job_id;
    const std::uint32_t max_attempts = std::max(1u, config.max_attempts);
    for (std::uint32_t attempt = 1;; ++attempt) {
      reply.attempts = attempt;
      bool injected = false;
      try {
        if (request.flags & kFlagPoison)
          throw std::runtime_error("poison job (chaos hook)");
        if (fault_fires(config.fault_seed, request.job_id, attempt,
                        config.fault_rate)) {
          kFaultsInjected.add();
          injected = true;
          throw trace::IoError(
              strf("injected transient I/O fault (attempt %u)", attempt));
        }
        const core::PipelineResult result = run_job(job, state);
        if (!result.acquire.ok) {
          reply.status = JobStatus::kInvalidTrace;
          reply.detail = result.acquire.diagnosis;
          kInvalidTrace.add();
          return reply;
        }
        reply.status = JobStatus::kOk;
        reply.detail = render_summary(result);
        kJobsOk.add();
        return reply;
      } catch (const support::CancelledError& e) {
        const bool deadline = e.reason() == support::CancelReason::kDeadline;
        reply.status = deadline ? JobStatus::kDeadlineExceeded
                                : JobStatus::kCancelledDrain;
        reply.detail = e.what();
        (deadline ? kDeadlineExceeded : kCancelledDrain).add();
        return reply;
      } catch (const trace::MalformedTraceError& e) {
        reply.status = JobStatus::kInvalidTrace;
        reply.detail = e.what();
        kInvalidTrace.add();
        return reply;
      } catch (const trace::IoError& e) {
        // Injected faults and file reads may be transient: retry with
        // exponential backoff until the attempt budget is spent.  Bytes
        // already in memory (an inline image) decode the same way every
        // time, so their failure is answered at once.
        const bool transient =
            injected || (request.flags & kFlagPayloadIsPath) != 0;
        if (transient && attempt < max_attempts) {
          kRetries.add();
          std::this_thread::sleep_for(std::chrono::microseconds(
              std::uint64_t(config.retry_backoff_us) << (attempt - 1)));
          continue;
        }
        reply.status = JobStatus::kIoError;
        reply.detail =
            strf("%s (after %u attempts)", e.what(), unsigned(attempt));
        kJobIoError.add();
        return reply;
      } catch (const CheckError& e) {
        reply.status = JobStatus::kInvalidTrace;
        reply.detail = e.what();
        kInvalidTrace.add();
        return reply;
      } catch (const std::exception& e) {
        reply.status = JobStatus::kInternalError;
        reply.detail = e.what();
        kInternalErrors.add();
        return reply;
      } catch (...) {
        reply.status = JobStatus::kInternalError;
        reply.detail = "unknown exception";
        kInternalErrors.add();
        return reply;
      }
    }
  }

  void worker_loop(WorkerState& state) {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [&] {
          return !queue.empty() || stopping.load(std::memory_order_acquire);
        });
        if (queue.empty()) return;  // stopping and drained
        job = std::move(queue.front());
        queue.pop_front();
        ++busy_workers;
      }
      kQueueWaitNs.observe(elapsed_ns(job.admitted));

      JobReply reply;
      if (hard_cancel.load(std::memory_order_acquire)) {
        // Drain budget spent: shed the rest of the queue without running it.
        reply.job_id = job.request.job_id;
        reply.status = JobStatus::kCancelledDrain;
        reply.detail = "server drain timeout; job cancelled before running";
        kCancelledDrain.add();
      } else {
        state.token.reset();
        const std::uint32_t deadline_ms = job.request.deadline_ms != 0
                                              ? job.request.deadline_ms
                                              : config.default_deadline_ms;
        if (deadline_ms != 0)
          state.token.set_deadline(job.admitted +
                                   std::chrono::milliseconds(deadline_ms));
        const auto service_start = Clock::now();
        reply = execute(job, state);
        kServiceNs.observe(elapsed_ns(service_start));
      }
      job.conn->send_reply(reply);
      job.conn->pending.fetch_sub(1, std::memory_order_acq_rel);
      job.conn->release();
      {
        const std::lock_guard<std::mutex> lock(queue_mutex);
        inflight_bytes -= job.charged_bytes;
        --busy_workers;
      }
      drained_cv.notify_all();
    }
  }

  // ---- admission (reader side) -------------------------------------------

  /// Decodes whatever complete chunks the stream's buffer now holds into the
  /// job state.  Returns false and fills `error` when the decode failed
  /// terminally (strict-mode defect or malformed header); the caller replies
  /// and drops the stream.
  static bool pump_stream(OpenStream& os, JobReply& error) {
    try {
      std::vector<trace::Event> chunk;
      while (os.reader.next(chunk) == trace::ChunkReader::Status::kChunk) {
        os.state->builder.append(chunk.data(), chunk.size());
        os.state->events.insert(os.state->events.end(), chunk.begin(),
                                chunk.end());
      }
      return true;
    } catch (const trace::MalformedTraceError& e) {
      error.status = JobStatus::kInvalidTrace;
      error.detail = e.what();
      kInvalidTrace.add();
    } catch (const trace::IoError& e) {
      // A decode defect in strict mode is content corruption, not a
      // transient fault: no retry budget applies, the stream is dead.
      error.status = JobStatus::kIoError;
      error.detail = e.what();
      kJobIoError.add();
    } catch (const CheckError& e) {
      error.status = JobStatus::kInvalidTrace;
      error.detail = e.what();
      kInvalidTrace.add();
    }
    error.job_id = os.open.job_id;
    return false;
  }

  void reader_loop(const std::shared_ptr<Connection>& conn) {
    // Streams being accumulated on this connection, by job id.  The reader
    // thread is their only owner; bytes charged to the in-flight budget are
    // the one piece of shared state (refunded on any terminal outcome).
    std::unordered_map<std::uint64_t, std::unique_ptr<OpenStream>> streams;
    const auto refund = [&](std::size_t bytes) {
      if (bytes == 0) return;
      const std::lock_guard<std::mutex> lock(queue_mutex);
      inflight_bytes -= bytes;
    };
    /// Charges `bytes` against the in-flight budget; false (with the shed
    /// reason) when over.
    const auto charge = [&](std::size_t bytes, std::string& shed) {
      const std::lock_guard<std::mutex> lock(queue_mutex);
      if (inflight_bytes + bytes > config.max_inflight_bytes) {
        shed = strf("in-flight bytes %zu + %zu over budget %zu",
                    inflight_bytes, bytes, config.max_inflight_bytes);
        return false;
      }
      inflight_bytes += bytes;
      kInflightBytesMax.record_max(static_cast<std::int64_t>(inflight_bytes));
      return true;
    };

    std::string payload;
    for (;;) {
      const FrameResult got = recv_frame(conn->fd.get(), payload);
      if (got != FrameResult::kOk) break;
      kJobsReceived.add();

      JobRequest request;
      if (!decode_request(payload.data(), payload.size(), request)) {
        JobReply reply;
        reply.status = JobStatus::kBadRequest;
        reply.detail = "undecodable request frame";
        kBadRequests.add();
        conn->send_reply(reply);
        continue;
      }
      const std::uint8_t stream_bits = request.flags & kStreamFlags;
      if ((request.flags & ~kKnownRequestFlags) != 0 ||
          (request.analyzers & ~kAllAnalyzers) != 0 ||
          request.analyzers == 0 ||
          request.repair > static_cast<std::uint8_t>(
                               core::RepairMode::kAggressive) ||
          ((request.flags & kFlagPoison) && !config.allow_poison) ||
          // Stream frames: exactly one of OPEN/CHUNK/CLOSE, never a path.
          (stream_bits & (stream_bits - 1)) != 0 ||
          (stream_bits != 0 && (request.flags & kFlagPayloadIsPath) != 0)) {
        JobReply reply;
        reply.job_id = request.job_id;
        reply.status = JobStatus::kBadRequest;
        reply.detail = "invalid flags, analyzer mask, or repair mode";
        kBadRequests.add();
        conn->send_reply(reply);
        continue;
      }
      if (draining.load(std::memory_order_acquire)) {
        // A mid-stream frame during drain terminates its stream; a CHUNK
        // whose stream is already gone stays silent so the stream's one
        // terminal reply is not followed by more.
        const auto it = streams.find(request.job_id);
        if (stream_bits == kFlagStreamChunk && it == streams.end()) continue;
        if (it != streams.end()) {
          refund(it->second->charged);
          streams.erase(it);
        }
        JobReply reply;
        reply.job_id = request.job_id;
        reply.status = JobStatus::kShuttingDown;
        reply.detail = "server is draining";
        kShedShutdown.add();
        conn->send_reply(reply);
        continue;
      }

      if (stream_bits == kFlagStreamOpen) {
        if (streams.find(request.job_id) != streams.end()) {
          JobReply reply;
          reply.job_id = request.job_id;
          reply.status = JobStatus::kBadRequest;
          reply.detail = "stream already open for this job id";
          kBadRequests.add();
          conn->send_reply(reply);
          continue;
        }
        // Admission decision happens at OPEN, like an inline job's enqueue:
        // the queue must have room and the first bytes must fit the budget.
        const std::size_t bytes = request.payload.size();
        bool at_depth = false;
        {
          const std::lock_guard<std::mutex> lock(queue_mutex);
          at_depth = queue.size() >= config.queue_depth;
        }
        std::string shed_detail =
            at_depth ? strf("queue depth at cap") : std::string();
        if (at_depth || !charge(bytes, shed_detail)) {
          JobReply reply;
          reply.job_id = request.job_id;
          reply.status = JobStatus::kRejectedOverload;
          reply.detail = shed_detail;
          kShedOverload.add();
          conn->send_reply(reply);
          continue;
        }
        kStreamsOpened.add();
        const bool salvage = static_cast<core::RepairMode>(request.repair) !=
                             core::RepairMode::kOff;
        auto os = std::make_unique<OpenStream>(std::move(request), salvage);
        os->charged = bytes;
        if (!os->open.payload.empty()) {
          os->reader.feed(os->open.payload.data(), os->open.payload.size());
          os->open.payload.clear();
          os->open.payload.shrink_to_fit();
        }
        JobReply error;
        if (!pump_stream(*os, error)) {
          refund(os->charged);
          conn->send_reply(error);
          continue;
        }
        streams.emplace(os->open.job_id, std::move(os));
        continue;
      }

      if (stream_bits == kFlagStreamChunk || stream_bits == kFlagStreamClose) {
        const auto it = streams.find(request.job_id);
        if (it == streams.end()) {
          if (stream_bits == kFlagStreamChunk) continue;  // terminated tail
          JobReply reply;
          reply.job_id = request.job_id;
          reply.status = JobStatus::kBadRequest;
          reply.detail = "close for a stream that is not open";
          kBadRequests.add();
          conn->send_reply(reply);
          continue;
        }
        OpenStream& os = *it->second;
        std::string shed_detail;
        if (!charge(request.payload.size(), shed_detail)) {
          JobReply reply;
          reply.job_id = request.job_id;
          reply.status = JobStatus::kRejectedOverload;
          reply.detail = shed_detail;
          kShedOverload.add();
          conn->send_reply(reply);
          refund(os.charged);
          streams.erase(it);
          continue;
        }
        os.charged += request.payload.size();
        if (!request.payload.empty())
          os.reader.feed(request.payload.data(), request.payload.size());
        if (stream_bits == kFlagStreamChunk) kStreamChunks.add();
        if (stream_bits == kFlagStreamClose) os.reader.finish();
        JobReply error;
        if (!pump_stream(os, error)) {
          refund(os.charged);
          conn->send_reply(error);
          streams.erase(it);
          continue;
        }
        if (stream_bits == kFlagStreamChunk) continue;

        // CLOSE: package the prebuilt state and enqueue like an inline job
        // (the deadline anchor stays at OPEN admission).
        os.state->info = os.reader.info();
        os.state->report = os.reader.report();
        os.state->salvaged = !os.reader.report().complete;
        bool admitted = false;
        std::string shed;
        {
          const std::lock_guard<std::mutex> lock(queue_mutex);
          if (queue.size() >= config.queue_depth) {
            shed = strf("queue depth %zu at cap", queue.size());
          } else {
            kQueueDepthMax.record_max(
                static_cast<std::int64_t>(queue.size() + 1));
            conn->pending.fetch_add(1, std::memory_order_acq_rel);
            Job job;
            job.request = std::move(os.open);
            job.conn = conn;
            job.admitted = os.admitted;
            job.charged_bytes = os.charged;
            job.stream = std::move(os.state);
            queue.push_back(std::move(job));
            admitted = true;
          }
        }
        if (admitted) {
          kJobsAccepted.add();
          queue_cv.notify_one();
        } else {
          JobReply reply;
          reply.job_id = request.job_id;
          reply.status = JobStatus::kRejectedOverload;
          reply.detail = shed;
          kShedOverload.add();
          conn->send_reply(reply);
          refund(os.charged);
        }
        streams.erase(it);
        continue;
      }

      // Admission control: explicit rejection the moment either budget is
      // exceeded.  The reader never blocks on a full queue — backpressure is
      // a reply, not a stall.
      const std::size_t bytes = request.payload.size();
      bool admitted = false;
      std::string shed_detail;
      {
        const std::lock_guard<std::mutex> lock(queue_mutex);
        if (queue.size() >= config.queue_depth) {
          shed_detail = strf("queue depth %zu at cap", queue.size());
        } else if (inflight_bytes + bytes > config.max_inflight_bytes) {
          shed_detail =
              strf("in-flight bytes %zu + %zu over budget %zu",
                   inflight_bytes, bytes, config.max_inflight_bytes);
        } else {
          inflight_bytes += bytes;
          kQueueDepthMax.record_max(
              static_cast<std::int64_t>(queue.size() + 1));
          kInflightBytesMax.record_max(
              static_cast<std::int64_t>(inflight_bytes));
          conn->pending.fetch_add(1, std::memory_order_acq_rel);
          Job job;
          job.request = std::move(request);
          job.conn = conn;
          job.admitted = Clock::now();
          job.charged_bytes = bytes;
          queue.push_back(std::move(job));
          admitted = true;
        }
      }
      if (admitted) {
        kJobsAccepted.add();
        queue_cv.notify_one();
      } else {
        JobReply reply;
        reply.job_id = request.job_id;
        reply.status = JobStatus::kRejectedOverload;
        reply.detail = shed_detail;
        kShedOverload.add();
        conn->send_reply(reply);
      }
    }
    // Streams the client abandoned (connection closed mid-stream) give their
    // budget back; their jobs were never enqueued, so nothing else holds it.
    for (auto& entry : streams) refund(entry.second->charged);
    streams.clear();
    conn->reader_done.store(true, std::memory_order_release);
    conn->release();
  }

  void listener_loop() {
    while (!draining.load(std::memory_order_acquire)) {
      Fd sock = accept_unix(listen_fd.get(), /*timeout_ms=*/100);
      if (!sock.valid()) continue;
      auto conn = std::make_shared<Connection>(std::move(sock));
      const std::lock_guard<std::mutex> lock(conn_mutex);
      connections.push_back(conn);
      readers.emplace_back([this, conn] { reader_loop(conn); });
    }
  }

  // ---- lifecycle ---------------------------------------------------------

  void start() {
    std::string error;
    listen_fd = listen_unix(config.socket_path, error);
    if (!listen_fd.valid()) throw trace::IoError(error);
    worker_states.reserve(config.workers);
    workers.reserve(config.workers);
    for (std::size_t w = 0; w < std::max<std::size_t>(1, config.workers);
         ++w) {
      worker_states.push_back(std::make_unique<WorkerState>());
      workers.emplace_back(
          [this, state = worker_states.back().get()] { worker_loop(*state); });
    }
    listener = std::thread([this] { listener_loop(); });
    started.store(true, std::memory_order_release);
  }

  void shutdown() {
    if (!started.load(std::memory_order_acquire)) return;
    bool expected = false;
    if (!draining.compare_exchange_strong(expected, true)) return;
    listener.join();

    // Grace period: let queued and running jobs finish.
    {
      std::unique_lock<std::mutex> lock(queue_mutex);
      const bool drained = drained_cv.wait_for(
          lock, std::chrono::milliseconds(config.drain_timeout_ms),
          [&] { return queue.empty() && busy_workers == 0; });
      if (!drained) {
        // Budget spent: cancel in-flight work at its next checkpoint and
        // have workers shed whatever is still queued.
        hard_cancel.store(true, std::memory_order_release);
        for (auto& state : worker_states) state->token.cancel();
        queue_cv.notify_all();
        drained_cv.wait(lock,
                        [&] { return queue.empty() && busy_workers == 0; });
      }
    }

    stopping.store(true, std::memory_order_release);
    queue_cv.notify_all();
    for (auto& worker : workers) worker.join();

    // Unblock readers parked in recv and join them; connection fds close
    // with the Connection objects.
    {
      const std::lock_guard<std::mutex> lock(conn_mutex);
      for (auto& conn : connections) {
        const std::lock_guard<std::mutex> wlock(conn->write_mutex);
        conn->fd.shutdown_both();
      }
    }
    for (auto& reader : readers) reader.join();
    readers.clear();
    connections.clear();

    listen_fd.close();
    ::unlink(config.socket_path.c_str());
    started.store(false, std::memory_order_release);
  }
};

PerturbServer::PerturbServer(ServerConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

PerturbServer::~PerturbServer() {
  if (impl_ != nullptr) impl_->shutdown();
}

void PerturbServer::start() { impl_->start(); }
void PerturbServer::shutdown() { impl_->shutdown(); }

const ServerConfig& PerturbServer::config() const noexcept {
  return impl_->config;
}

bool PerturbServer::fault_fires(std::uint64_t seed, std::uint64_t job_id,
                                std::uint32_t attempt, double rate) noexcept {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // splitmix64 of the (seed, job_id, attempt) triple → uniform in [0, 1).
  std::uint64_t key = seed;
  key = support::splitmix64(key ^ (job_id * 0x9e3779b97f4a7c15ull));
  key = support::splitmix64(key ^ attempt);
  const double u =
      static_cast<double>(key >> 11) * (1.0 / 9007199254740992.0);  // 2^53
  return u < rate;
}

// ---- client ---------------------------------------------------------------

struct Client::Impl {
  Fd fd;
};

Client::Client(const std::string& socket_path)
    : impl_(std::make_unique<Impl>()) {
  std::string error;
  impl_->fd = connect_unix(socket_path, error);
  if (!impl_->fd.valid()) throw trace::IoError(error);
}

Client::~Client() = default;
Client::Client(Client&&) noexcept = default;
Client& Client::operator=(Client&&) noexcept = default;

namespace {

JobReply recv_reply_checked(int fd, std::uint64_t job_id) {
  std::string payload;
  const FrameResult got = recv_frame(fd, payload);
  if (got != FrameResult::kOk)
    throw trace::IoError("server connection closed before reply");
  JobReply reply;
  if (!decode_reply(payload.data(), payload.size(), reply))
    throw trace::IoError("undecodable reply frame from server");
  if (reply.job_id != job_id && reply.job_id != 0)
    throw trace::IoError("reply job id does not match request");
  return reply;
}

}  // namespace

JobReply Client::call(const JobRequest& request) {
  if (!send_frame(impl_->fd.get(), encode_request(request)))
    throw trace::IoError("server connection lost while sending job");
  return recv_reply_checked(impl_->fd.get(), request.job_id);
}

JobReply Client::call_stream(const JobRequest& request,
                             std::size_t chunk_bytes) {
  PERTURB_CHECK_MSG(chunk_bytes > 0, "chunk_bytes must be positive");
  PERTURB_CHECK_MSG((request.flags & kFlagPayloadIsPath) == 0,
                    "streamed jobs carry inline trace bytes, not a path");
  constexpr std::uint8_t kAnyStream =
      kFlagStreamOpen | kFlagStreamChunk | kFlagStreamClose;

  // OPEN carries the options and no payload; the trace bytes follow in
  // CHUNK frames with the final piece riding CLOSE.
  JobRequest open = request;
  open.flags = static_cast<std::uint8_t>((request.flags & ~kAnyStream) |
                                         kFlagStreamOpen);
  open.payload.clear();
  if (!send_frame(impl_->fd.get(), encode_request(open)))
    throw trace::IoError("server connection lost while opening stream");

  JobRequest piece;
  piece.job_id = request.job_id;
  piece.analyzers = request.analyzers;
  piece.repair = request.repair;
  const std::string& image = request.payload;
  std::size_t offset = 0;
  while (image.size() - offset > chunk_bytes) {
    piece.flags = kFlagStreamChunk;
    piece.payload.assign(image, offset, chunk_bytes);
    offset += chunk_bytes;
    if (!send_frame(impl_->fd.get(), encode_request(piece)))
      throw trace::IoError("server connection lost while streaming chunks");
  }
  piece.flags = kFlagStreamClose;
  piece.payload.assign(image, offset, image.size() - offset);
  if (!send_frame(impl_->fd.get(), encode_request(piece)))
    throw trace::IoError("server connection lost while closing stream");
  return recv_reply_checked(impl_->fd.get(), request.job_id);
}

}  // namespace perturb::server
