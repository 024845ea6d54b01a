#include "rt/doacross.hpp"

#include <atomic>
#include <thread>
#include <vector>

#include "rt/sync.hpp"
#include "support/check.hpp"

namespace perturb::rt {

namespace {

using trace::EventKind;
using trace::ProcId;

void validate(const DoacrossOptions& o) {
  PERTURB_CHECK(o.iterations >= 0);
  PERTURB_CHECK(o.distance >= 0);
  PERTURB_CHECK(o.num_threads > 0);
}

/// Hands out iterations under the selected policy.  Self-scheduling is safe
/// for DOACROSS chains: the shared counter dispatches iterations in order,
/// and every fetched iteration runs to completion (including its advance)
/// before its thread fetches again, so an await's producer iteration is
/// always already dispatched.
class IterationSource {
 public:
  IterationSource(const DoacrossOptions& o) : o_(o) {}

  /// Next iteration for `tid`, or -1 when exhausted.
  std::int64_t next(std::uint32_t tid, std::int64_t& local_cursor) {
    if (o_.schedule == RtSchedule::kCyclic) {
      const std::int64_t i =
          local_cursor < 0
              ? static_cast<std::int64_t>(tid)
              : local_cursor + static_cast<std::int64_t>(o_.num_threads);
      local_cursor = i;
      return i < o_.iterations ? i : -1;
    }
    const std::int64_t i = shared_.fetch_add(1, std::memory_order_relaxed);
    return i < o_.iterations ? i : -1;
  }

 private:
  const DoacrossOptions& o_;
  std::atomic<std::int64_t> shared_{0};
};

}  // namespace

void run_doacross(const DoacrossBody& body, const DoacrossOptions& o) {
  validate(o);
  if (o.iterations == 0) return;
  SyncVar sync(o.iterations);
  IterationSource source(o);
  const bool synced = o.distance > 0;

  auto worker = [&](std::uint32_t tid) {
    std::int64_t cursor = -1;
    for (std::int64_t i = source.next(tid, cursor); i >= 0;
         i = source.next(tid, cursor)) {
      if (body.pre) body.pre(i);
      if (synced) sync.await(i - o.distance);
      if (body.guarded) body.guarded(i);
      if (synced) sync.advance(i);
      if (body.post) body.post(i);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(o.num_threads - 1);
  for (std::uint32_t t = 1; t < o.num_threads; ++t)
    threads.emplace_back(worker, t);
  worker(0);
  for (auto& th : threads) th.join();
}

trace::Trace run_doacross_traced(const DoacrossBody& body,
                                 const DoacrossOptions& o,
                                 const std::string& trace_name) {
  validate(o);
  Tracer tracer(o.num_threads);
  SyncVar sync(o.iterations > 0 ? o.iterations : 1);
  SpinBarrier barrier(o.num_threads);
  IterationSource source(o);
  const bool synced = o.distance > 0;
  using S = DoacrossSites;

  tracer.record(0, EventKind::kProgramBegin, 0, 0, 0);
  tracer.record(0, EventKind::kLoopBegin, S::kLoop, S::kLoop, 0);

  auto worker = [&](std::uint32_t tid_u) {
    const auto tid = static_cast<ProcId>(tid_u);
    std::int64_t cursor = -1;
    for (std::int64_t i = source.next(tid_u, cursor); i >= 0;
         i = source.next(tid_u, cursor)) {
      tracer.record(tid, EventKind::kIterBegin, S::kLoop, S::kLoop, i);
      if (body.pre) {
        tracer.record(tid, EventKind::kStmtEnter, S::kPre, 0, i);
        body.pre(i);
        tracer.record(tid, EventKind::kStmtExit, S::kPre, 0, i);
      }
      if (synced && i - o.distance >= 0) {
        tracer.record(tid, EventKind::kAwaitBegin, S::kAwait, S::kSyncVar,
                      i - o.distance);
        sync.await(i - o.distance);
        tracer.record(tid, EventKind::kAwaitEnd, S::kAwait, S::kSyncVar,
                      i - o.distance);
      }
      if (body.guarded) {
        tracer.record(tid, EventKind::kStmtEnter, S::kGuarded, 0, i);
        body.guarded(i);
        tracer.record(tid, EventKind::kStmtExit, S::kGuarded, 0, i);
      }
      if (synced) {
        // Stamp before publishing: an awaiter released by this advance
        // stamps its awaitE after it, however this thread is preempted.
        tracer.record(tid, EventKind::kAdvance, S::kAdvance, S::kSyncVar, i);
        sync.advance(i);
      }
      if (body.post) {
        tracer.record(tid, EventKind::kStmtEnter, S::kPost, 0, i);
        body.post(i);
        tracer.record(tid, EventKind::kStmtExit, S::kPost, 0, i);
      }
      tracer.record(tid, EventKind::kIterEnd, S::kLoop, S::kLoop, i);
    }
    tracer.record(tid, EventKind::kBarrierArrive, S::kLoop, S::kLoop, 0);
    barrier.arrive_and_wait();
    tracer.record(tid, EventKind::kBarrierDepart, S::kLoop, S::kLoop, 0);
  };

  std::vector<std::thread> threads;
  threads.reserve(o.num_threads - 1);
  for (std::uint32_t t = 1; t < o.num_threads; ++t)
    threads.emplace_back(worker, t);
  worker(0);
  for (auto& th : threads) th.join();

  tracer.record(0, EventKind::kLoopEnd, S::kLoop, S::kLoop, 0);
  tracer.record(0, EventKind::kProgramEnd, 0, 0, 0);
  PERTURB_CHECK_MSG(tracer.dropped() == 0, "trace buffer overflow");
  return tracer.harvest(trace_name);
}

}  // namespace perturb::rt
