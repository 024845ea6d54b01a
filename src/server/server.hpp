// perturb-server: a fault-tolerant perturbation-analysis daemon.
//
// The server accepts trace-analysis jobs over an AF_UNIX stream socket
// (length-prefixed frames; see server/protocol.hpp) and shards them across a
// pool of worker threads, each running the same core::AnalysisPipeline the
// command-line tools use (path jobs go through run_file, like
// perturb-analyze).
//
// Robustness model — the interesting part:
//
//   * Bounded admission.  Jobs queue up to `queue_depth` entries and
//     `max_inflight_bytes` of payload (queued + running).  Past either
//     budget the connection reader replies kRejectedOverload immediately —
//     explicit backpressure, never an unbounded queue or a blocked client.
//   * Deadlines.  Each job carries (or inherits) a deadline measured from
//     admission, so queue wait counts against it.  The worker arms a
//     support::CancelToken; the pipeline polls it at phase boundaries and
//     the job unwinds cooperatively with kDeadlineExceeded.
//   * Crash isolation.  A worker catches everything a job throws, maps it
//     onto a structured status (invalid trace / I/O / internal), replies,
//     and moves on.  One poisonous job cannot take a worker — let alone the
//     daemon — down.
//   * Bounded retry.  Transient I/O faults (deterministically injectable
//     for tests and drills via `fault_rate`) and failed path reads are
//     retried up to `max_attempts` with exponential backoff before the job
//     fails with kIoError.  An inline image that fails to decode is answered
//     kIoError on its first attempt.
//   * Graceful drain.  shutdown() stops admitting (new frames get
//     kShuttingDown), lets in-flight jobs finish within `drain_timeout_ms`,
//     then cancels stragglers via their tokens, and finally tears down
//     connections and the socket file.  Call it from a SIGTERM handler's
//     main-loop check; it is idempotent.
//   * Chunked jobs.  A client can stream a trace in pieces (OPEN → CHUNK* →
//     CLOSE frames; see protocol.hpp) instead of one inline payload.  The
//     reader decodes each chunk on arrival (trace::ChunkReader) and feeds an
//     incremental index (trace::IncrementalTraceIndex), so the worker starts
//     from a prebuilt index; admission, byte budgets, deadlines (anchored at
//     OPEN), and cancellation behave exactly as for inline jobs.
//
// Determinism: a reply is a pure function of the request and the server
// configuration.  Replies carry no timestamps, fault injection is keyed on
// (seed, job_id, attempt) rather than on scheduling, and each job runs
// single-threaded inside its worker — so the set of replies is bit-identical
// whether the server runs 1, 2, or 8 workers.  Latency lives in metrics
// (support/metrics.hpp histograms) and in the client's own clock, never in
// the reply bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/pipeline.hpp"

namespace perturb::server {

struct JobReply;
struct JobRequest;

struct ServerConfig {
  std::string socket_path;
  std::size_t workers = 1;
  /// Admission budgets: queued-job count and queued+running payload bytes.
  std::size_t queue_depth = 64;
  std::size_t max_inflight_bytes = 64u << 20;
  /// Default per-job deadline, measured from admission; 0 = none.  A request
  /// with deadline_ms != 0 overrides it.
  std::uint32_t default_deadline_ms = 0;
  /// Graceful-drain budget before in-flight jobs are cancelled.
  std::uint32_t drain_timeout_ms = 5000;
  /// Deterministic transient-fault injection: each (job_id, attempt) pair
  /// faults with this probability, keyed on fault_seed — independent of
  /// worker count and scheduling.
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 0x70657254u;
  /// Execution attempts per job (1 = no retry).
  std::uint32_t max_attempts = 3;
  /// Backoff before retry k is retry_backoff_us << (k - 1) microseconds.
  std::uint32_t retry_backoff_us = 200;
  /// Honor the kFlagPoison chaos hook (tests / fault drills only).
  bool allow_poison = false;
  /// Analysis defaults (overheads, machine, likely samples, repair, seed);
  /// per-job options override analyzers/repair/likely_samples.  `threads`
  /// and `cancel` are server-managed and ignored here.
  core::PipelineOptions pipeline;
};

/// The daemon.  start() spawns the listener and worker threads and returns;
/// shutdown() drains and joins everything.  The destructor calls shutdown().
class PerturbServer {
 public:
  explicit PerturbServer(ServerConfig config);
  ~PerturbServer();

  PerturbServer(const PerturbServer&) = delete;
  PerturbServer& operator=(const PerturbServer&) = delete;

  /// Binds the socket and starts serving.  Throws trace::IoError when the
  /// socket cannot be bound.
  void start();

  /// Graceful drain (see file comment).  Idempotent; safe to call from any
  /// thread except a worker or reader.
  void shutdown();

  const ServerConfig& config() const noexcept;

  /// The deterministic fault-injection predicate: true when execution
  /// attempt `attempt` of job `job_id` suffers an injected transient fault
  /// at rate `rate` under `seed`.  Exposed so tests can choose job ids that
  /// fault on the first attempt but not the second.
  static bool fault_fires(std::uint64_t seed, std::uint64_t job_id,
                          std::uint32_t attempt, double rate) noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Blocking client: one connection, one outstanding job at a time (callers
/// wanting concurrency open more clients).  Methods throw trace::IoError on
/// connection/protocol failures.
class Client {
 public:
  explicit Client(const std::string& socket_path);
  ~Client();
  Client(Client&&) noexcept;
  Client& operator=(Client&&) noexcept;

  /// Sends one job and waits for its reply.
  JobReply call(const JobRequest& request);

  /// Streams one job as OPEN → CHUNK* → CLOSE frames and waits for the
  /// single reply.  `request.payload` is the complete v2 binary trace image
  /// (kFlagPayloadIsPath is invalid here); it is cut into `chunk_bytes`-sized
  /// CHUNK payloads.  Options (analyzers, repair, deadline, ...) ride on the
  /// OPEN frame.
  JobReply call_stream(const JobRequest& request,
                       std::size_t chunk_bytes = 64 * 1024);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perturb::server
