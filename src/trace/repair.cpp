#include "trace/repair.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "support/text.hpp"

namespace perturb::trace {

using support::strf;

const char* repair_strategy_name(RepairStrategy strategy) noexcept {
  switch (strategy) {
    case RepairStrategy::kClampProcessorTime: return "clamp-proc-time";
    case RepairStrategy::kRaiseAwaitEnd: return "raise-awaitE";
    case RepairStrategy::kDropOrphanAwaitEnd: return "drop-orphan-awaitE";
    case RepairStrategy::kSynthesizeAwaitBegin: return "synthesize-awaitB";
    case RepairStrategy::kDropDuplicateAdvance: return "drop-duplicate-advance";
    case RepairStrategy::kRaiseLockAcquire: return "raise-lock-acquire";
    case RepairStrategy::kSynthesizeLockRelease: return "synthesize-lock-release";
    case RepairStrategy::kReassignLockRelease: return "reassign-lock-release";
    case RepairStrategy::kDropLockRelease: return "drop-lock-release";
    case RepairStrategy::kRaiseBarrierDepart: return "raise-barrier-depart";
    case RepairStrategy::kSynthesizeBarrierArrive: return "synthesize-barrier-arrive";
    case RepairStrategy::kSynthesizeBarrierDepart: return "synthesize-barrier-depart";
    case RepairStrategy::kExciseBarrierEpisode: return "excise-barrier-episode";
    case RepairStrategy::kDropSemaphoreRelease: return "drop-semaphore-release";
    case RepairStrategy::kSynthesizeSemRelease: return "synthesize-semaphore-release";
    case RepairStrategy::kDropEvent: return "drop-event";
  }
  return "unknown";
}

const char* repair_severity_name(RepairSeverity severity) noexcept {
  switch (severity) {
    case RepairSeverity::kClean: return "clean";
    case RepairSeverity::kCosmetic: return "cosmetic";
    case RepairSeverity::kLossy: return "lossy";
    case RepairSeverity::kUnsalvageable: return "unsalvageable";
  }
  return "unknown";
}

namespace {

constexpr std::size_t kMaxRecordedActions = 50000;
constexpr std::size_t kNoEvent = static_cast<std::size_t>(-1);

/// Strategies that only nudge timestamps or remove exact semantic
/// redundancy keep the trace's information content: cosmetic.  Everything
/// else invents or discards data: lossy.
RepairSeverity strategy_severity(RepairStrategy s) noexcept {
  switch (s) {
    case RepairStrategy::kClampProcessorTime:
    case RepairStrategy::kRaiseAwaitEnd:
    case RepairStrategy::kRaiseLockAcquire:
    case RepairStrategy::kRaiseBarrierDepart:
    case RepairStrategy::kDropDuplicateAdvance:
      return RepairSeverity::kCosmetic;
    default:
      return RepairSeverity::kLossy;
  }
}

bool strategy_drops(RepairStrategy s) noexcept {
  switch (s) {
    case RepairStrategy::kDropOrphanAwaitEnd:
    case RepairStrategy::kDropDuplicateAdvance:
    case RepairStrategy::kDropLockRelease:
    case RepairStrategy::kExciseBarrierEpisode:
    case RepairStrategy::kDropSemaphoreRelease:
    case RepairStrategy::kDropEvent:
      return true;
    default:
      return false;
  }
}

bool strategy_synthesizes(RepairStrategy s) noexcept {
  switch (s) {
    case RepairStrategy::kSynthesizeAwaitBegin:
    case RepairStrategy::kSynthesizeLockRelease:
    case RepairStrategy::kSynthesizeBarrierArrive:
    case RepairStrategy::kSynthesizeBarrierDepart:
    case RepairStrategy::kSynthesizeSemRelease:
      return true;
    default:
      return false;
  }
}

Event make_ev(EventKind kind, Tick time, ProcId proc, ObjectId object,
              std::int64_t payload) {
  Event e;
  e.kind = kind;
  e.time = time;
  e.proc = proc;
  e.object = object;
  e.payload = payload;
  e.id = 0;  // synthesized events carry no instrumented site
  return e;
}

/// Batched structural edits against a fixed snapshot of event indices:
/// drops, and insertions keyed by the original index they go before
/// (index == size() appends at the end).
struct Edits {
  std::vector<char> drop;
  std::map<std::size_t, std::vector<Event>> insert_before;
  bool any = false;

  explicit Edits(std::size_t n) : drop(n, 0) {}

  void drop_event(std::size_t i) {
    drop[i] = 1;
    any = true;
  }
  void insert(std::size_t before_index, const Event& e) {
    insert_before[before_index].push_back(e);
    any = true;
  }
};

void apply_edits(Trace& t, const Edits& ed) {
  if (!ed.any) return;
  auto& ev = t.events();
  std::vector<Event> out;
  out.reserve(ev.size());
  for (std::size_t i = 0; i <= ev.size(); ++i) {
    const auto it = ed.insert_before.find(i);
    if (it != ed.insert_before.end())
      out.insert(out.end(), it->second.begin(), it->second.end());
    if (i < ev.size() && !ed.drop[i]) out.push_back(ev[i]);
  }
  ev = std::move(out);
}

class Repairer {
 public:
  Repairer(const Trace& trace, const RepairOptions& options)
      : work_(trace), opt_(options) {}

  RepairResult run(std::vector<Violation> violations) {
    ValidateOptions vopt;
    vopt.sync_slack = opt_.sync_slack;
    bool escalated = false;
    while (!violations.empty() && manifest_.passes < opt_.max_passes) {
      ++manifest_.passes;
      bool edited = apply_pass(violations);
      if (!edited && opt_.aggressive && !escalated) {
        escalated = true;
        edited = escalate(violations);
      }
      if (!edited) break;  // no strategy makes progress; stop re-validating
      violations = validate(work_, vopt);
    }
    if (!violations.empty() && opt_.aggressive && !escalated) {
      // Pass budget ran out before conservative repair converged: escalate
      // once, then give the cheap clamps a final chance to settle times.
      ++manifest_.passes;
      if (escalate(violations)) {
        violations = validate(work_, vopt);
        if (!violations.empty()) {
          apply_pass(violations);
          violations = validate(work_, vopt);
        }
      }
    }
    manifest_.remaining = violations;
    if (!manifest_.remaining.empty())
      manifest_.severity = RepairSeverity::kUnsalvageable;
    else
      manifest_.severity = worst_;
    return {std::move(work_), std::move(manifest_)};
  }

 private:
  void record(ViolationKind kind, RepairStrategy strategy, std::size_t index,
              Tick ticks, std::string detail) {
    worst_ = std::max(worst_, strategy_severity(strategy));
    if (strategy_drops(strategy)) {
      ++manifest_.events_dropped;
    } else if (strategy_synthesizes(strategy)) {
      ++manifest_.events_synthesized;
    } else {
      ++manifest_.events_adjusted;
      manifest_.total_ticks_adjusted += ticks;
    }
    if (manifest_.actions.size() < kMaxRecordedActions)
      manifest_.actions.push_back(
          {kind, strategy, index, ticks, std::move(detail)});
    else
      manifest_.actions_truncated = true;
  }

  bool apply_pass(const std::vector<Violation>& violations) {
    bool has[10] = {};
    for (const auto& v : violations) has[static_cast<int>(v.kind)] = true;
    auto present = [&](ViolationKind k) { return has[static_cast<int>(k)]; };

    bool edited = false;
    // Structural fixes first (they create/remove events), then timing
    // clamps; anything a fix knocks loose is caught by the next pass.
    if (present(ViolationKind::kDuplicateAdvance))
      edited |= fix_duplicate_advances();
    if (present(ViolationKind::kAwaitEndWithoutAdvance))
      edited |= fix_orphan_await_ends();
    if (present(ViolationKind::kAwaitEndWithoutBegin))
      edited |= fix_missing_await_begins();
    if (present(ViolationKind::kLockOverlap) ||
        present(ViolationKind::kLockUnbalanced))
      edited |= fix_locks();
    if (present(ViolationKind::kSemaphoreUnbalanced))
      edited |= fix_semaphores();
    if (present(ViolationKind::kBarrierOrder) ||
        present(ViolationKind::kBarrierIncomplete))
      edited |= fix_barriers();
    if (present(ViolationKind::kAwaitEndBeforeAdvance))
      edited |= fix_await_before_advance();
    if (present(ViolationKind::kNonMonotoneProcessorTime))
      edited |= clamp_processor_times();
    return edited;
  }

  bool fix_duplicate_advances() {
    Edits ed(work_.size());
    std::unordered_set<SyncKey, SyncKeyHash> seen;
    for (std::size_t i = 0; i < work_.size(); ++i) {
      const Event& e = work_[i];
      if (e.kind != EventKind::kAdvance) continue;
      if (!seen.insert(SyncKey{e.object, e.payload}).second) {
        ed.drop_event(i);
        record(ViolationKind::kDuplicateAdvance,
               RepairStrategy::kDropDuplicateAdvance, i, 0,
               strf("advance(%u, %lld) repeated", unsigned(e.object),
                    static_cast<long long>(e.payload)));
      }
    }
    apply_edits(work_, ed);
    return ed.any;
  }

  bool fix_orphan_await_ends() {
    std::unordered_set<SyncKey, SyncKeyHash> advanced;
    for (const auto& e : work_)
      if (e.kind == EventKind::kAdvance)
        advanced.insert(SyncKey{e.object, e.payload});
    Edits ed(work_.size());
    for (std::size_t i = 0; i < work_.size(); ++i) {
      const Event& e = work_[i];
      if (e.kind != EventKind::kAwaitEnd) continue;
      if (advanced.count(SyncKey{e.object, e.payload})) continue;
      ed.drop_event(i);
      record(ViolationKind::kAwaitEndWithoutAdvance,
             RepairStrategy::kDropOrphanAwaitEnd, i, 0,
             strf("awaitE(%u, %lld) on proc %u has no advance",
                  unsigned(e.object), static_cast<long long>(e.payload),
                  unsigned(e.proc)));
    }
    apply_edits(work_, ed);
    return ed.any;
  }

  bool fix_missing_await_begins() {
    // Mirrors the validator's forward scan: an awaitE is satisfied by any
    // awaitB with the same (key, proc) earlier in trace order.
    Edits ed(work_.size());
    std::set<std::pair<SyncKey, ProcId>> begun;
    for (std::size_t i = 0; i < work_.size(); ++i) {
      const Event& e = work_[i];
      const SyncKey key{e.object, e.payload};
      if (e.kind == EventKind::kAwaitBegin) {
        begun.insert({key, e.proc});
      } else if (e.kind == EventKind::kAwaitEnd) {
        if (begun.insert({key, e.proc}).second) {
          ed.insert(i, make_ev(EventKind::kAwaitBegin, e.time, e.proc,
                               e.object, e.payload));
          record(ViolationKind::kAwaitEndWithoutBegin,
                 RepairStrategy::kSynthesizeAwaitBegin, i, 0,
                 strf("awaitE(%u, %lld) on proc %u lacked its awaitB",
                      unsigned(e.object), static_cast<long long>(e.payload),
                      unsigned(e.proc)));
        }
      }
    }
    apply_edits(work_, ed);
    return ed.any;
  }

  bool fix_await_before_advance() {
    std::unordered_map<SyncKey, Tick, SyncKeyHash> advance_time;
    for (const auto& e : work_)
      if (e.kind == EventKind::kAdvance)
        advance_time.insert({SyncKey{e.object, e.payload}, e.time});
    bool changed = false;
    for (std::size_t i = 0; i < work_.size(); ++i) {
      Event& e = work_[i];
      if (e.kind != EventKind::kAwaitEnd) continue;
      const auto it = advance_time.find(SyncKey{e.object, e.payload});
      if (it == advance_time.end()) continue;
      if (e.time + opt_.sync_slack < it->second) {
        const Tick delta = it->second - e.time;
        record(ViolationKind::kAwaitEndBeforeAdvance,
               RepairStrategy::kRaiseAwaitEnd, i, delta,
               strf("awaitE(%u, %lld) raised %lld ticks to its advance",
                    unsigned(e.object), static_cast<long long>(e.payload),
                    static_cast<long long>(delta)));
        e.time = it->second;
        changed = true;
      }
    }
    return changed;
  }

  bool fix_locks() {
    struct LockState {
      bool held = false;
      ProcId holder = 0;
      Tick release_time = 0;
      bool has_prev_release = false;
    };
    std::unordered_map<ObjectId, LockState> locks;
    Edits ed(work_.size());
    bool changed = false;
    for (std::size_t i = 0; i < work_.size(); ++i) {
      Event& e = work_[i];
      if (e.kind == EventKind::kLockAcquire) {
        auto& st = locks[e.object];
        if (st.held) {
          ed.insert(i, make_ev(EventKind::kLockRelease, e.time, st.holder,
                               e.object, 0));
          record(ViolationKind::kLockUnbalanced,
                 RepairStrategy::kSynthesizeLockRelease, i, 0,
                 strf("lock %u: closed section left open by proc %u",
                      unsigned(e.object), unsigned(st.holder)));
          st.release_time = e.time;
          st.has_prev_release = true;
        } else if (st.has_prev_release &&
                   e.time + opt_.sync_slack < st.release_time) {
          const Tick delta = st.release_time - e.time;
          record(ViolationKind::kLockOverlap,
                 RepairStrategy::kRaiseLockAcquire, i, delta,
                 strf("lock %u: acquire raised %lld ticks past previous "
                      "release",
                      unsigned(e.object), static_cast<long long>(delta)));
          e.time = st.release_time;
          changed = true;
        }
        st.held = true;
        st.holder = e.proc;
      } else if (e.kind == EventKind::kLockRelease) {
        auto& st = locks[e.object];
        if (!st.held) {
          ed.drop_event(i);
          record(ViolationKind::kLockUnbalanced,
                 RepairStrategy::kDropLockRelease, i, 0,
                 strf("lock %u: release by proc %u had no acquire",
                      unsigned(e.object), unsigned(e.proc)));
          continue;
        }
        if (st.holder != e.proc) {
          record(ViolationKind::kLockUnbalanced,
                 RepairStrategy::kReassignLockRelease, i, 0,
                 strf("lock %u: release re-attributed from proc %u to "
                      "holder %u",
                      unsigned(e.object), unsigned(e.proc),
                      unsigned(st.holder)));
          e.proc = st.holder;
          changed = true;
        }
        st.held = false;
        st.release_time = e.time;
        st.has_prev_release = true;
      }
    }
    const Tick end = work_.end_time();
    for (const auto& [obj, st] : locks) {
      if (!st.held) continue;
      ed.insert(work_.size(),
                make_ev(EventKind::kLockRelease, end, st.holder, obj, 0));
      record(ViolationKind::kLockUnbalanced,
             RepairStrategy::kSynthesizeLockRelease, kNoEvent, 0,
             strf("lock %u: released at trace end for proc %u", unsigned(obj),
                  unsigned(st.holder)));
    }
    apply_edits(work_, ed);
    return changed || ed.any;
  }

  bool fix_semaphores() {
    std::map<std::pair<ObjectId, ProcId>, std::int64_t> held;
    Edits ed(work_.size());
    for (std::size_t i = 0; i < work_.size(); ++i) {
      const Event& e = work_[i];
      if (e.kind == EventKind::kSemAcquire) {
        ++held[{e.object, e.proc}];
      } else if (e.kind == EventKind::kSemRelease) {
        auto& h = held[{e.object, e.proc}];
        if (h <= 0) {
          ed.drop_event(i);
          record(ViolationKind::kSemaphoreUnbalanced,
                 RepairStrategy::kDropSemaphoreRelease, i, 0,
                 strf("semaphore %u: V() by proc %u had no held P()",
                      unsigned(e.object), unsigned(e.proc)));
        } else {
          --h;
        }
      }
    }
    const Tick end = work_.end_time();
    for (const auto& [key, count] : held) {
      for (std::int64_t c = 0; c < count; ++c) {
        ed.insert(work_.size(), make_ev(EventKind::kSemRelease, end,
                                        key.second, key.first, 0));
        record(ViolationKind::kSemaphoreUnbalanced,
               RepairStrategy::kSynthesizeSemRelease, kNoEvent, 0,
               strf("semaphore %u: closing V() for proc %u at trace end",
                    unsigned(key.first), unsigned(key.second)));
      }
    }
    apply_edits(work_, ed);
    return ed.any;
  }

  bool fix_barriers() {
    struct Episode {
      std::vector<std::size_t> arrives, departs;
    };
    std::map<std::pair<ObjectId, std::int64_t>, Episode> episodes;
    for (std::size_t i = 0; i < work_.size(); ++i) {
      const Event& e = work_[i];
      if (e.kind == EventKind::kBarrierArrive)
        episodes[{e.object, e.payload}].arrives.push_back(i);
      else if (e.kind == EventKind::kBarrierDepart)
        episodes[{e.object, e.payload}].departs.push_back(i);
    }
    Edits ed(work_.size());
    bool changed = false;
    for (const auto& [key, ep] : episodes) {
      if (ep.arrives.size() != ep.departs.size()) {
        if (opt_.aggressive) {
          for (const auto i : ep.arrives) ed.drop_event(i);
          for (const auto i : ep.departs) ed.drop_event(i);
          record(ViolationKind::kBarrierIncomplete,
                 RepairStrategy::kExciseBarrierEpisode,
                 ep.arrives.empty() ? ep.departs.front() : ep.arrives.front(),
                 0,
                 strf("barrier %u episode %lld: excised %zu arrivals and "
                      "%zu departures",
                      unsigned(key.first),
                      static_cast<long long>(key.second), ep.arrives.size(),
                      ep.departs.size()));
          // Counters track every dropped event, not just the one action.
          manifest_.events_dropped += ep.arrives.size() + ep.departs.size() - 1;
          changed = true;
          continue;
        }
        changed |= complete_episode(key.first, key.second, ep.arrives,
                                    ep.departs, ed);
        continue;
      }
      changed |= reorder_episode(ep.arrives, ep.departs, ed);
    }
    apply_edits(work_, ed);
    return changed;
  }

  /// Balances an episode's arrival/departure counts by synthesizing the
  /// missing side for the processors that lack it.
  bool complete_episode(ObjectId object, std::int64_t episode,
                        const std::vector<std::size_t>& arrives,
                        const std::vector<std::size_t>& departs, Edits& ed) {
    std::multiset<ProcId> need;
    auto remove_one = [&need](ProcId proc) {
      const auto it = need.find(proc);
      if (it != need.end()) need.erase(it);
    };
    if (departs.size() < arrives.size()) {
      for (const auto i : arrives) need.insert(work_[i].proc);
      for (const auto i : departs) remove_one(work_[i].proc);
      Tick t = std::numeric_limits<Tick>::min();
      for (const auto i : arrives) t = std::max(t, work_[i].time);
      for (const auto i : departs) t = std::max(t, work_[i].time);
      const std::size_t anchor =
          std::max(arrives.empty() ? std::size_t{0} : arrives.back(),
                   departs.empty() ? std::size_t{0} : departs.back()) +
          1;
      for (const auto proc : need) {
        ed.insert(anchor,
                  make_ev(EventKind::kBarrierDepart, t, proc, object, episode));
        record(ViolationKind::kBarrierIncomplete,
               RepairStrategy::kSynthesizeBarrierDepart, kNoEvent, 0,
               strf("barrier %u episode %lld: departure added for proc %u",
                    unsigned(object), static_cast<long long>(episode),
                    unsigned(proc)));
      }
    } else {
      for (const auto i : departs) need.insert(work_[i].proc);
      for (const auto i : arrives) remove_one(work_[i].proc);
      Tick t = std::numeric_limits<Tick>::max();
      for (const auto i : departs) t = std::min(t, work_[i].time);
      const std::size_t anchor = departs.front();
      for (const auto proc : need) {
        ed.insert(anchor,
                  make_ev(EventKind::kBarrierArrive, t, proc, object, episode));
        record(ViolationKind::kBarrierIncomplete,
               RepairStrategy::kSynthesizeBarrierArrive, kNoEvent, 0,
               strf("barrier %u episode %lld: arrival added for proc %u",
                    unsigned(object), static_cast<long long>(episode),
                    unsigned(proc)));
      }
    }
    return !need.empty();
  }

  /// Fixes kBarrierOrder within a balanced episode: departs recorded before
  /// a later arrive are moved after the last arrive, and any depart earlier
  /// than the arrivals it should follow is raised to their time.
  bool reorder_episode(const std::vector<std::size_t>& arrives,
                       const std::vector<std::size_t>& departs, Edits& ed) {
    if (arrives.empty() || departs.empty()) return false;
    bool changed = false;
    const std::size_t last_arrive = arrives.back();
    Tick max_arrive = std::numeric_limits<Tick>::min();
    for (const auto i : arrives) max_arrive = std::max(max_arrive, work_[i].time);

    // Running "last arrive seen so far" per trace position, mirroring the
    // validator's scan.
    std::size_t ai = 0;
    Tick running_arrive = std::numeric_limits<Tick>::min();
    for (const auto d : departs) {
      while (ai < arrives.size() && arrives[ai] < d)
        running_arrive = std::max(running_arrive, work_[arrives[ai++]].time);
      Event& e = work_[d];
      if (d < last_arrive) {
        // Depart recorded before a later arrive: move it after every
        // arrive, raising its time to the episode's latest arrival.
        Event moved = e;
        const Tick nt = std::max(moved.time, max_arrive);
        record(ViolationKind::kBarrierOrder,
               RepairStrategy::kRaiseBarrierDepart, d, nt - moved.time,
               strf("barrier %u episode %lld: depart moved after arrivals",
                    unsigned(e.object), static_cast<long long>(e.payload)));
        moved.time = nt;
        ed.drop_event(d);
        ed.insert(last_arrive + 1, moved);
        changed = true;
      } else if (e.time + opt_.sync_slack < running_arrive) {
        const Tick delta = running_arrive - e.time;
        record(ViolationKind::kBarrierOrder,
               RepairStrategy::kRaiseBarrierDepart, d, delta,
               strf("barrier %u episode %lld: depart raised %lld ticks to "
                    "last arrival",
                    unsigned(e.object), static_cast<long long>(e.payload),
                    static_cast<long long>(delta)));
        e.time = running_arrive;
        changed = true;
      }
    }
    return changed;
  }

  bool clamp_processor_times() {
    std::unordered_map<ProcId, Tick> last;
    bool changed = false;
    for (std::size_t i = 0; i < work_.size(); ++i) {
      Event& e = work_[i];
      const auto it = last.find(e.proc);
      if (it != last.end() && e.time < it->second) {
        const Tick delta = it->second - e.time;
        record(ViolationKind::kNonMonotoneProcessorTime,
               RepairStrategy::kClampProcessorTime, i, delta,
               strf("proc %u: time raised %lld ticks to stay monotone",
                    unsigned(e.proc), static_cast<long long>(delta)));
        e.time = it->second;
        changed = true;
      }
      last[e.proc] = std::max(it == last.end() ? e.time : it->second, e.time);
    }
    return changed;
  }

  /// Aggressive last resort: drop every event the validator can still point
  /// at.  Unattributable violations (episode/lock summaries) have been
  /// handled by their structural fixes; whatever remains attributable goes.
  bool escalate(const std::vector<Violation>& violations) {
    Edits ed(work_.size());
    for (const auto& v : violations) {
      if (v.event_index == kNoEvent || v.event_index >= work_.size()) continue;
      if (ed.drop[v.event_index]) continue;
      ed.drop_event(v.event_index);
      record(v.kind, RepairStrategy::kDropEvent, v.event_index, 0,
             "aggressive: dropped offending event (" + v.message + ")");
    }
    apply_edits(work_, ed);
    return ed.any;
  }

  Trace work_;
  RepairOptions opt_;
  RepairManifest manifest_;
  RepairSeverity worst_ = RepairSeverity::kClean;
};

}  // namespace

std::string render_manifest(const RepairManifest& manifest) {
  std::string out = strf(
      "repair: %s — %zu pass(es), %zu dropped, %zu synthesized, %zu "
      "adjusted (%lld ticks total)\n",
      repair_severity_name(manifest.severity), manifest.passes,
      manifest.events_dropped, manifest.events_synthesized,
      manifest.events_adjusted,
      static_cast<long long>(manifest.total_ticks_adjusted));
  std::map<RepairStrategy, std::size_t> histogram;
  for (const auto& a : manifest.actions) ++histogram[a.strategy];
  for (const auto& [strategy, count] : histogram)
    out += strf("  %6zu × %s\n", count, repair_strategy_name(strategy));
  constexpr std::size_t kShowActions = 20;
  for (std::size_t i = 0; i < manifest.actions.size() && i < kShowActions;
       ++i) {
    const auto& a = manifest.actions[i];
    out += strf("  [%s] %s", violation_kind_name(a.kind),
                a.detail.c_str());
    if (a.event_index != static_cast<std::size_t>(-1))
      out += strf(" (event %zu)", a.event_index);
    out += '\n';
  }
  if (manifest.actions.size() > kShowActions)
    out += strf("  ... %zu more action(s)\n",
                manifest.actions.size() - kShowActions);
  if (manifest.actions_truncated)
    out += "  (action list truncated; counters cover everything)\n";
  if (!manifest.remaining.empty()) {
    out += strf("  %zu violation(s) remain:\n", manifest.remaining.size());
    out += describe(manifest.remaining);
  }
  return out;
}

RepairResult repair(const Trace& trace, const RepairOptions& options) {
  ValidateOptions vopt;
  vopt.sync_slack = options.sync_slack;
  return repair(trace, validate(trace, vopt), options);
}

RepairResult repair(const Trace& trace, std::vector<Violation> violations,
                    const RepairOptions& options) {
  return Repairer(trace, options).run(std::move(violations));
}

}  // namespace perturb::trace
