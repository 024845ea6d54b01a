// Robustness suite for the perturbation-analysis daemon (src/server).
//
// What must hold, per the server's contract:
//   * overload is shed with structured kRejectedOverload replies — the
//     admission path answers immediately instead of blocking the client;
//   * a job whose deadline passes while it waits is cancelled at a pipeline
//     checkpoint and answered kDeadlineExceeded;
//   * a poisonous job (worker throws) costs exactly one structured error
//     reply; the same worker then serves healthy jobs;
//   * graceful drain finishes in-flight work, sheds what the drain budget
//     cannot cover, and answers kShuttingDown to late arrivals;
//   * replies for deadline-free jobs are bit-identical whether the daemon
//     runs 1, 2, or 8 workers (fault injection keyed on job id, not on
//     scheduling);
//   * transient faults are retried with backoff and succeed within the
//     attempt budget.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "experiments/experiments.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/socket.hpp"
#include "trace/io.hpp"

namespace perturb::server {
namespace {

using Clock = std::chrono::steady_clock;

/// Unique socket path per test (ctest runs suites in parallel processes).
std::string test_socket() {
  static std::atomic<int> counter{0};
  return "/tmp/perturb_srv_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// The shared workload image: the standard loop-17 measured trace.
const std::string& payload() {
  static const std::string image = [] {
    experiments::Setup setup;
    const auto run = experiments::run_concurrent_experiment(
        17, 200, setup, experiments::PlanKind::kFull);
    std::ostringstream out;
    trace::write_binary(out, run.measured);
    return out.str();
  }();
  return image;
}

ServerConfig base_config(const std::string& socket_path,
                         std::size_t workers) {
  ServerConfig config;
  config.socket_path = socket_path;
  config.workers = workers;
  experiments::Setup setup;
  config.pipeline.overheads = experiments::overheads_for(
      experiments::make_plan(experiments::PlanKind::kFull, setup),
      setup.machine);
  config.pipeline.machine = setup.machine;
  config.pipeline.sync_slack = 130;
  return config;
}

JobRequest job(std::uint64_t id, std::uint8_t analyzers = kMaskTimeBased) {
  JobRequest request;
  request.job_id = id;
  request.analyzers = analyzers;
  request.payload = payload();
  return request;
}

/// A job that holds a worker for roughly `samples/6600` seconds (calibrated:
/// 2000 Monte-Carlo samples of the loop-17 workload ≈ 300 ms).
JobRequest slow_job(std::uint64_t id, std::uint32_t samples) {
  JobRequest request = job(id, kMaskLikely);
  request.likely_samples = samples;
  return request;
}

TEST(Server, AnalyzesInlineTraceAndFilePath) {
  const std::string socket_path = test_socket();
  PerturbServer daemon(base_config(socket_path, 2));
  daemon.start();
  Client client(socket_path);

  const JobReply inline_reply = client.call(job(1, kMaskTimeBased | kMaskEventBased));
  EXPECT_EQ(inline_reply.status, JobStatus::kOk);
  EXPECT_EQ(inline_reply.attempts, 1u);
  EXPECT_NE(inline_reply.detail.find("analyzer=time-based"),
            std::string::npos);
  EXPECT_NE(inline_reply.detail.find("analyzer=event-based"),
            std::string::npos);

  // Path jobs load server-side through the worker's arena.
  const std::string path = test_socket() + ".trace.bin";
  {
    std::ostringstream unused;
    trace::Trace t = trace::read_binary(payload().data(), payload().size());
    trace::save(path, t);
  }
  JobRequest by_path;
  by_path.job_id = 2;
  by_path.flags = kFlagPayloadIsPath;
  by_path.payload = path;
  const JobReply path_reply = client.call(by_path);
  EXPECT_EQ(path_reply.status, JobStatus::kOk);
  EXPECT_EQ(path_reply.detail, inline_reply.detail);
  ::unlink(path.c_str());
  daemon.shutdown();
}

TEST(Server, MalformedAndEmptyPayloadsAreInvalidTraceNotCrash) {
  const std::string socket_path = test_socket();
  PerturbServer daemon(base_config(socket_path, 1));
  daemon.start();
  Client client(socket_path);

  JobRequest empty = job(1);
  empty.payload.clear();
  const JobReply empty_reply = client.call(empty);
  EXPECT_EQ(empty_reply.status, JobStatus::kInvalidTrace);
  EXPECT_NE(empty_reply.detail.find("empty trace file"), std::string::npos);

  JobRequest garbage = job(2);
  garbage.payload = "this is not a trace";
  const JobReply garbage_reply = client.call(garbage);
  EXPECT_EQ(garbage_reply.status, JobStatus::kInvalidTrace);

  // Missing file: an I/O error, structurally reported.
  JobRequest missing;
  missing.job_id = 3;
  missing.flags = kFlagPayloadIsPath;
  missing.payload = "/nonexistent/trace.bin";
  const JobReply missing_reply = client.call(missing);
  EXPECT_EQ(missing_reply.status, JobStatus::kIoError);

  // The worker survived all three; a healthy job still completes.
  EXPECT_EQ(client.call(job(4)).status, JobStatus::kOk);
  daemon.shutdown();
}

TEST(Server, BadRequestsAreRejectedStructurally) {
  const std::string socket_path = test_socket();
  PerturbServer daemon(base_config(socket_path, 1));
  daemon.start();
  Client client(socket_path);

  JobRequest no_analyzers = job(1);
  no_analyzers.analyzers = 0;
  EXPECT_EQ(client.call(no_analyzers).status, JobStatus::kBadRequest);

  JobRequest poison = job(2);
  poison.flags |= kFlagPoison;  // allow_poison is off in base_config
  EXPECT_EQ(client.call(poison).status, JobStatus::kBadRequest);

  EXPECT_EQ(client.call(job(3)).status, JobStatus::kOk);
  daemon.shutdown();
}

TEST(Server, OverloadShedsWithStructuredRejection) {
  const std::string socket_path = test_socket();
  ServerConfig config = base_config(socket_path, 1);
  config.queue_depth = 1;
  PerturbServer daemon(std::move(config));
  daemon.start();

  // Saturate the single worker and the one queue slot with two slow jobs
  // (~1.2 s each), and give them time to be admitted before probing — the
  // shed contract is about jobs arriving at a *full* server.
  std::vector<std::thread> holders;
  std::vector<JobStatus> held_status(2);
  for (int k = 0; k < 2; ++k) {
    holders.emplace_back([&, k] {
      Client holder(socket_path);
      held_status[static_cast<std::size_t>(k)] =
          holder.call(slow_job(10 + static_cast<std::uint64_t>(k), 10000))
              .status;
    });
    // Stagger: let the worker pop the first job before the second arrives,
    // so one runs and one queues (rather than racing for the queue slot).
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Worker busy + queue at cap: the probe must be rejected immediately, not
  // blocked for the >1 s the in-flight job still has to run.
  Client prober(socket_path);
  const auto start = Clock::now();
  const JobReply reply = prober.call(job(100));
  const double rejection_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          Clock::now() - start)
          .count();
  EXPECT_EQ(reply.status, JobStatus::kRejectedOverload);
  EXPECT_NE(reply.detail.find("cap"), std::string::npos) << reply.detail;
  EXPECT_LT(rejection_ms, 500.0);

  // Both slow jobs were admitted (one running, one queued) and finish fine:
  // shedding protects admitted work instead of cancelling it.
  for (auto& holder : holders) holder.join();
  for (const JobStatus status : held_status)
    EXPECT_EQ(status, JobStatus::kOk) << status_name(status);
  daemon.shutdown();
}

TEST(Server, DeadlinePassedInQueueCancelsAtCheckpoint) {
  const std::string socket_path = test_socket();
  PerturbServer daemon(base_config(socket_path, 1));
  daemon.start();

  // Hold the only worker for ~1.5 s...
  std::thread holder([&] {
    Client client(socket_path);
    EXPECT_EQ(client.call(slow_job(1, 10000)).status, JobStatus::kOk);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // ...so this job's 50 ms deadline expires while it queues; the worker
  // must cancel it at the first pipeline checkpoint.
  Client client(socket_path);
  JobRequest doomed = job(2);
  doomed.deadline_ms = 50;
  const JobReply reply = client.call(doomed);
  EXPECT_EQ(reply.status, JobStatus::kDeadlineExceeded);
  EXPECT_NE(reply.detail.find("deadline exceeded before"), std::string::npos)
      << reply.detail;
  holder.join();

  // The worker that cancelled is still healthy.
  EXPECT_EQ(client.call(job(3)).status, JobStatus::kOk);
  daemon.shutdown();
}

TEST(Server, PoisonJobCostsOneReplyNotAWorker) {
  const std::string socket_path = test_socket();
  ServerConfig config = base_config(socket_path, 1);
  config.allow_poison = true;
  PerturbServer daemon(std::move(config));
  daemon.start();
  Client client(socket_path);

  JobRequest poison = job(1);
  poison.flags |= kFlagPoison;
  const JobReply reply = client.call(poison);
  EXPECT_EQ(reply.status, JobStatus::kInternalError);
  EXPECT_NE(reply.detail.find("poison"), std::string::npos);

  // The sole worker just caught an unexpected exception; it must keep
  // serving healthy jobs.
  for (std::uint64_t id = 2; id < 6; ++id)
    EXPECT_EQ(client.call(job(id)).status, JobStatus::kOk) << id;
  daemon.shutdown();
}

TEST(Server, GracefulDrainFinishesInFlightAndRefusesNewJobs) {
  const std::string socket_path = test_socket();
  ServerConfig config = base_config(socket_path, 1);
  config.drain_timeout_ms = 30000;  // ample: the in-flight job must finish
  PerturbServer daemon(std::move(config));
  daemon.start();

  JobStatus slow_status = JobStatus::kInternalError;
  std::thread holder([&] {
    Client client(socket_path);
    slow_status = client.call(slow_job(1, 4000)).status;
  });
  // Late client connects before the drain begins; its frames during the
  // drain must get kShuttingDown.
  Client late(socket_path);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    daemon.shutdown();
    drained.store(true);
  });
  // Give shutdown() a head start to flip the draining flag: a probe that
  // wins the race is admitted and then queues behind the slow job for the
  // whole drain window, leaving no frame to see kShuttingDown with.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  bool saw_shutting_down = false;
  for (std::uint64_t id = 10; id < 300 && !drained.load(); ++id) {
    JobReply reply;
    try {
      reply = late.call(job(id));
    } catch (const trace::IoError&) {
      break;  // drain tore the connection down after the grace period
    }
    if (reply.status == JobStatus::kShuttingDown) {
      saw_shutting_down = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  drainer.join();
  holder.join();
  // Graceful: the in-flight job finished despite the shutdown racing it.
  EXPECT_EQ(slow_status, JobStatus::kOk);
  EXPECT_TRUE(saw_shutting_down);
}

TEST(Server, DrainTimeoutShedsQueuedJobsAsCancelled) {
  const std::string socket_path = test_socket();
  ServerConfig config = base_config(socket_path, 1);
  config.queue_depth = 16;
  config.drain_timeout_ms = 50;  // far less than the queued work
  PerturbServer daemon(std::move(config));
  daemon.start();

  // One running job (~600 ms) plus several queued behind it.
  std::vector<std::thread> senders;
  std::vector<JobStatus> statuses(5, JobStatus::kInternalError);
  for (std::size_t k = 0; k < statuses.size(); ++k)
    senders.emplace_back([&, k] {
      Client client(socket_path);
      statuses[k] =
          client.call(slow_job(1 + static_cast<std::uint64_t>(k), 4000))
              .status;
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  daemon.shutdown();
  for (auto& sender : senders) sender.join();

  std::size_t ok = 0;
  std::size_t cancelled = 0;
  for (const JobStatus status : statuses) {
    if (status == JobStatus::kOk) ++ok;
    if (status == JobStatus::kCancelledDrain) ++cancelled;
  }
  // The drain budget (50 ms) covers at most the running job; the queue
  // behind it must be shed as kCancelledDrain, not silently dropped.
  EXPECT_GE(ok, 1u);
  EXPECT_GE(cancelled, 1u);
  EXPECT_EQ(ok + cancelled, statuses.size());
}

TEST(Server, RetryRecoversTransientFaultDeterministically) {
  // Choose a job id that faults on attempt 1 but not attempt 2 under the
  // test seed — the retry must recover it with attempts == 2.
  const std::uint64_t seed = 42;
  const double rate = 0.5;
  std::uint64_t flaky_id = 0;
  std::uint64_t stable_id = 0;
  for (std::uint64_t id = 1; id < 1000; ++id) {
    const bool first = PerturbServer::fault_fires(seed, id, 1, rate);
    const bool second = PerturbServer::fault_fires(seed, id, 2, rate);
    if (flaky_id == 0 && first && !second) flaky_id = id;
    if (stable_id == 0 && !first) stable_id = id;
    if (flaky_id != 0 && stable_id != 0) break;
  }
  ASSERT_NE(flaky_id, 0u);
  ASSERT_NE(stable_id, 0u);

  const std::string socket_path = test_socket();
  ServerConfig config = base_config(socket_path, 1);
  config.fault_seed = seed;
  config.fault_rate = rate;
  config.max_attempts = 3;
  config.retry_backoff_us = 100;
  PerturbServer daemon(std::move(config));
  daemon.start();
  Client client(socket_path);

  const JobReply flaky = client.call(job(flaky_id));
  EXPECT_EQ(flaky.status, JobStatus::kOk);
  EXPECT_EQ(flaky.attempts, 2u);

  const JobReply stable = client.call(job(stable_id));
  EXPECT_EQ(stable.status, JobStatus::kOk);
  EXPECT_EQ(stable.attempts, 1u);

  // An id that faults on every attempt within the budget fails with a
  // structured I/O error naming the attempt count.
  std::uint64_t doomed_id = 0;
  for (std::uint64_t id = 1; id < 100000; ++id)
    if (PerturbServer::fault_fires(seed, id, 1, rate) &&
        PerturbServer::fault_fires(seed, id, 2, rate) &&
        PerturbServer::fault_fires(seed, id, 3, rate)) {
      doomed_id = id;
      break;
    }
  ASSERT_NE(doomed_id, 0u);
  const JobReply doomed = client.call(job(doomed_id));
  EXPECT_EQ(doomed.status, JobStatus::kIoError);
  EXPECT_EQ(doomed.attempts, 3u);
  EXPECT_NE(doomed.detail.find("after 3 attempts"), std::string::npos);
  daemon.shutdown();
}

/// Runs the same deadline-free job mix at a given worker count and returns
/// the encoded reply bytes per job id.
std::map<std::uint64_t, std::string> replies_at(std::size_t workers) {
  const std::string socket_path = test_socket();
  ServerConfig config = base_config(socket_path, workers);
  config.fault_seed = 7;
  config.fault_rate = 0.3;  // some jobs retry — keyed on id, not scheduling
  PerturbServer daemon(std::move(config));
  daemon.start();

  std::vector<JobRequest> mix;
  for (std::uint64_t id = 1; id <= 12; ++id)
    mix.push_back(job(id, kMaskTimeBased | kMaskEventBased));
  for (std::uint64_t id = 13; id <= 16; ++id) {
    JobRequest with_likely = job(id, kMaskTimeBased | kMaskLikely);
    with_likely.likely_samples = 32;
    mix.push_back(with_likely);
  }
  {
    JobRequest malformed = job(17);
    malformed.payload = "garbage bytes, not a trace";
    mix.push_back(malformed);
    JobRequest empty = job(18);
    empty.payload.clear();
    mix.push_back(empty);
  }

  // Concurrent submission from 4 clients so multi-worker runs genuinely
  // interleave jobs across workers.
  std::mutex mutex;
  std::map<std::uint64_t, std::string> replies;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 4; ++c)
    clients.emplace_back([&, c] {
      Client client(socket_path);
      for (std::size_t k = c; k < mix.size(); k += 4) {
        const JobReply reply = client.call(mix[k]);
        const std::lock_guard<std::mutex> lock(mutex);
        replies[mix[k].job_id] = encode_reply(reply);
      }
    });
  for (auto& client : clients) client.join();
  daemon.shutdown();
  return replies;
}

TEST(Server, RepliesBitIdenticalAt1And2And8Workers) {
  const auto one = replies_at(1);
  const auto two = replies_at(2);
  const auto eight = replies_at(8);
  ASSERT_EQ(one.size(), 18u);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

// ---- chunked (streamed) jobs ---------------------------------------------

TEST(Server, ChunkedJobReplyMatchesInline) {
  const std::string socket_path = test_socket();
  PerturbServer daemon(base_config(socket_path, 2));
  daemon.start();
  Client client(socket_path);

  const JobRequest request = job(1, kMaskTimeBased | kMaskEventBased);
  const JobReply inline_reply = client.call(request);
  ASSERT_EQ(inline_reply.status, JobStatus::kOk);

  // The same trace in 4 KiB chunks: one reply, bit-identical result text.
  JobRequest chunked = request;
  chunked.job_id = 2;
  const JobReply stream_reply = client.call_stream(chunked, 4096);
  EXPECT_EQ(stream_reply.status, JobStatus::kOk);
  EXPECT_EQ(stream_reply.attempts, 1u);
  EXPECT_EQ(stream_reply.detail, inline_reply.detail);

  // Tiny chunks stress reassembly; the reply must not change.
  chunked.job_id = 3;
  const JobReply tiny_reply = client.call_stream(chunked, 101);
  EXPECT_EQ(tiny_reply.status, JobStatus::kOk);
  EXPECT_EQ(tiny_reply.detail, inline_reply.detail);
  daemon.shutdown();
}

TEST(Server, ChunkedJobDecodeFailureRepliesAtTheFailingFrame) {
  const std::string socket_path = test_socket();
  PerturbServer daemon(base_config(socket_path, 1));
  daemon.start();
  Client client(socket_path);

  // A torn image in strict mode (repair off) dies inside the reader-side
  // decode with a structured I/O error; no worker ever sees the job.
  JobRequest torn = job(10);
  torn.payload.resize(torn.payload.size() - 50);
  const JobReply strict = client.call_stream(torn, 4096);
  EXPECT_EQ(strict.status, JobStatus::kIoError);

  // With a repair mode set, the reader-side decode salvages the valid
  // prefix (the streaming analogue of acquire_file's salvage load) and the
  // job runs over it, flagged degraded.
  JobRequest salvaged = torn;
  salvaged.job_id = 11;
  salvaged.repair =
      static_cast<std::uint8_t>(core::RepairMode::kConservative);
  const JobReply repaired = client.call_stream(salvaged, 4096);
  EXPECT_EQ(repaired.status, JobStatus::kOk);
  EXPECT_NE(repaired.detail.find("salvaged=1"), std::string::npos);
  EXPECT_NE(repaired.detail.find("degraded=1"), std::string::npos);
  daemon.shutdown();
}

TEST(Server, TornPathJobWithRepairMatchesInBandJob) {
  const std::string socket_path = test_socket();
  PerturbServer daemon(base_config(socket_path, 1));
  daemon.start();
  Client client(socket_path);

  // The same torn image with repair on, sent inline, sent chunked and named
  // by path: the worker's image salvage, the reader-side salvage and the
  // worker's run_file salvage must produce byte-identical replies.
  JobRequest torn = job(20, kMaskTimeBased | kMaskEventBased);
  torn.payload.resize(torn.payload.size() * 3 / 5);
  torn.repair = static_cast<std::uint8_t>(core::RepairMode::kConservative);
  const JobReply in_band = client.call_stream(torn, 4096);
  ASSERT_EQ(in_band.status, JobStatus::kOk) << in_band.detail;
  EXPECT_EQ(in_band.attempts, 1u);
  EXPECT_NE(in_band.detail.find("salvaged=1"), std::string::npos);

  const JobReply inline_reply = client.call(torn);
  EXPECT_EQ(encode_reply(inline_reply), encode_reply(in_band))
      << inline_reply.detail << "\n--- vs ---\n" << in_band.detail;

  const std::string path = test_socket() + ".torn.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(torn.payload.data(),
              static_cast<std::streamsize>(torn.payload.size()));
  }
  JobRequest by_path = torn;
  by_path.flags = kFlagPayloadIsPath;
  by_path.payload = path;
  const JobReply path_reply = client.call(by_path);
  ::unlink(path.c_str());
  EXPECT_EQ(encode_reply(path_reply), encode_reply(in_band))
      << path_reply.detail << "\n--- vs ---\n" << in_band.detail;
  daemon.shutdown();
}

TEST(Server, StrictTornInlineImageIsNotRetried) {
  const std::string socket_path = test_socket();
  ServerConfig config = base_config(socket_path, 1);
  config.max_attempts = 3;
  PerturbServer daemon(config);
  daemon.start();
  Client client(socket_path);

  // Bytes in memory decode the same way on every attempt: a strict torn
  // image is answered on its first.
  JobRequest torn = job(21);
  torn.payload.resize(torn.payload.size() * 3 / 5);
  const JobReply reply = client.call(torn);
  EXPECT_EQ(reply.status, JobStatus::kIoError) << reply.detail;
  EXPECT_EQ(reply.attempts, 1u);
  daemon.shutdown();
}

/// Raw-frame client for protocol-edge tests the Client API cannot express.
struct RawClient {
  Fd fd;
  explicit RawClient(const std::string& socket_path) {
    std::string error;
    fd = connect_unix(socket_path, error);
    EXPECT_TRUE(fd.valid()) << error;
  }
  void send(const JobRequest& request) {
    ASSERT_TRUE(send_frame(fd.get(), encode_request(request)));
  }
  JobReply recv() {
    std::string payload;
    EXPECT_EQ(recv_frame(fd.get(), payload), FrameResult::kOk);
    JobReply reply;
    EXPECT_TRUE(decode_reply(payload.data(), payload.size(), reply));
    return reply;
  }
};

TEST(Server, OrphanChunkIsDroppedOrphanCloseIsBadRequest) {
  const std::string socket_path = test_socket();
  PerturbServer daemon(base_config(socket_path, 1));
  daemon.start();
  RawClient raw(socket_path);

  // A CHUNK for a stream that was never opened: silently dropped (it is the
  // tail of an already-terminated stream).  The orphan CLOSE that follows is
  // answered kBadRequest — proving the CHUNK produced no reply, since
  // replies on one connection come back in order.
  JobRequest chunk;
  chunk.job_id = 77;
  chunk.flags = kFlagStreamChunk;
  chunk.payload = "some bytes";
  raw.send(chunk);
  JobRequest orphan_close = chunk;
  orphan_close.flags = kFlagStreamClose;
  orphan_close.payload.clear();
  raw.send(orphan_close);
  const JobReply reply = raw.recv();
  EXPECT_EQ(reply.job_id, 77u);
  EXPECT_EQ(reply.status, JobStatus::kBadRequest);

  // The connection survives: a normal inline job still runs.
  JobRequest healthy = job(78);
  raw.send(healthy);
  const JobReply ok = raw.recv();
  EXPECT_EQ(ok.status, JobStatus::kOk);
  daemon.shutdown();
}

TEST(Server, StreamFlagMisuseIsRejected) {
  const std::string socket_path = test_socket();
  PerturbServer daemon(base_config(socket_path, 1));
  daemon.start();
  RawClient raw(socket_path);

  // More than one stream bit on a frame.
  JobRequest both;
  both.job_id = 1;
  both.flags = kFlagStreamOpen | kFlagStreamClose;
  raw.send(both);
  EXPECT_EQ(raw.recv().status, JobStatus::kBadRequest);

  // A stream frame cannot carry a path payload.
  JobRequest path_open;
  path_open.job_id = 2;
  path_open.flags = kFlagStreamOpen | kFlagPayloadIsPath;
  path_open.payload = "/tmp/nope";
  raw.send(path_open);
  EXPECT_EQ(raw.recv().status, JobStatus::kBadRequest);

  // Opening the same job id twice is a bad request for the second OPEN.
  JobRequest open;
  open.job_id = 3;
  open.flags = kFlagStreamOpen;
  raw.send(open);
  raw.send(open);
  EXPECT_EQ(raw.recv().status, JobStatus::kBadRequest);
  daemon.shutdown();
}

TEST(Server, MidStreamOverloadShedsTheStream) {
  const std::string socket_path = test_socket();
  ServerConfig config = base_config(socket_path, 1);
  config.max_inflight_bytes = 8 * 1024;
  PerturbServer daemon(std::move(config));
  daemon.start();
  RawClient raw(socket_path);

  JobRequest open;
  open.job_id = 5;
  open.flags = kFlagStreamOpen;
  raw.send(open);

  // A chunk that blows the byte budget terminates the stream with a
  // structured rejection; its charge is refunded.
  JobRequest big;
  big.job_id = 5;
  big.flags = kFlagStreamChunk;
  big.payload.assign(16 * 1024, 'x');
  raw.send(big);
  const JobReply shed = raw.recv();
  EXPECT_EQ(shed.job_id, 5u);
  EXPECT_EQ(shed.status, JobStatus::kRejectedOverload);

  // The CLOSE behind it is now an orphan.
  JobRequest late_close;
  late_close.job_id = 5;
  late_close.flags = kFlagStreamClose;
  raw.send(late_close);
  EXPECT_EQ(raw.recv().status, JobStatus::kBadRequest);

  // The refund restored the budget: a small inline job fits again.
  JobRequest small = job(6);
  small.payload = small.payload.substr(0, 1024);  // corrupt but admitted
  raw.send(small);
  const JobReply after = raw.recv();
  EXPECT_NE(after.status, JobStatus::kRejectedOverload);
  daemon.shutdown();
}

TEST(Server, StreamDeadlineAnchorsAtOpen) {
  const std::string socket_path = test_socket();
  ServerConfig config = base_config(socket_path, 1);
  config.default_deadline_ms = 150;
  PerturbServer daemon(std::move(config));
  daemon.start();
  RawClient raw(socket_path);

  // Transfer time counts against the deadline: OPEN, dawdle past it, CLOSE.
  JobRequest open;
  open.job_id = 9;
  open.flags = kFlagStreamOpen;
  raw.send(open);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  JobRequest slow_close;
  slow_close.job_id = 9;
  slow_close.flags = kFlagStreamClose;
  slow_close.payload = payload();
  raw.send(slow_close);
  const JobReply reply = raw.recv();
  EXPECT_EQ(reply.status, JobStatus::kDeadlineExceeded);
  daemon.shutdown();
}

TEST(Server, FaultInjectionIsAPureFunctionOfSeedIdAttempt) {
  EXPECT_FALSE(PerturbServer::fault_fires(1, 1, 1, 0.0));
  EXPECT_TRUE(PerturbServer::fault_fires(1, 1, 1, 1.0));
  int fires = 0;
  const int trials = 20000;
  for (std::uint64_t id = 0; id < trials; ++id)
    fires += PerturbServer::fault_fires(99, id, 1, 0.25) ? 1 : 0;
  // Binomial(20000, 0.25): ±6 sigma ≈ ±367.
  EXPECT_NEAR(fires, trials / 4, 400);
  // Stable across calls (no hidden state).
  for (std::uint64_t id = 0; id < 100; ++id)
    EXPECT_EQ(PerturbServer::fault_fires(5, id, 2, 0.5),
              PerturbServer::fault_fires(5, id, 2, 0.5));
}

}  // namespace
}  // namespace perturb::server
