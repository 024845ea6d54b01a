// Trace triage & repair: salvage degraded measured traces instead of dying.
//
// Real trace capture produces imperfect data — torn files from killed runs,
// dropped events from full buffers, skewed clocks.  The validator
// (trace/validate.hpp) detects the resulting causality violations; this
// module *repairs* them, applying a per-ViolationKind strategy and recording
// every change in a RepairManifest so downstream consumers know exactly how
// trustworthy the repaired trace is:
//
//   kNonMonotoneProcessorTime → clamp the event up to its predecessor
//   kAwaitEndBeforeAdvance    → raise the awaitE to its advance's time
//   kAwaitEndWithoutAdvance   → drop the orphan awaitE
//   kAwaitEndWithoutBegin     → synthesize the missing awaitB
//   kDuplicateAdvance         → drop the repeated advance
//   kLockOverlap              → raise the acquire to the previous release
//   kLockUnbalanced           → synthesize/drop/reassign releases to balance
//   kBarrierOrder             → move departs after arrives, raising times
//   kBarrierIncomplete        → complete the episode (aggressive: excise it)
//   kSemaphoreUnbalanced      → drop stray V()s, synthesize closing V()s
//
// Repair runs triage→fix→revalidate passes until the trace is clean or the
// pass budget is exhausted; a trace that cannot be made validator-clean is
// reported kUnsalvageable with the remaining violations attached.
#pragma once

#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "trace/validate.hpp"

namespace perturb::trace {

enum class RepairStrategy : std::uint8_t {
  kClampProcessorTime,     ///< raised a non-monotone event to its predecessor
  kRaiseAwaitEnd,          ///< raised an awaitE to its advance's time
  kDropOrphanAwaitEnd,     ///< dropped an awaitE with no advance anywhere
  kSynthesizeAwaitBegin,   ///< inserted a missing awaitB before its awaitE
  kDropDuplicateAdvance,   ///< dropped a repeated advance (first kept)
  kRaiseLockAcquire,       ///< raised an acquire to the previous release
  kSynthesizeLockRelease,  ///< inserted a release to close a critical section
  kReassignLockRelease,    ///< re-attributed a release to the actual holder
  kDropLockRelease,        ///< dropped a release with no matching acquire
  kRaiseBarrierDepart,     ///< moved/raised a depart after its arrives
  kSynthesizeBarrierArrive,  ///< inserted an arrive to balance an episode
  kSynthesizeBarrierDepart,  ///< inserted a depart to balance an episode
  kExciseBarrierEpisode,     ///< dropped a hopeless episode (aggressive)
  kDropSemaphoreRelease,   ///< dropped a V() with no held P()
  kSynthesizeSemRelease,   ///< inserted a closing V() for an end-held P()
  kDropEvent,              ///< last-resort drop of an offending event
};

const char* repair_strategy_name(RepairStrategy strategy) noexcept;

/// How trustworthy a repaired trace is, for flagging downstream metrics.
enum class RepairSeverity : std::uint8_t {
  kClean,          ///< no violations; trace untouched
  kCosmetic,       ///< only timestamp clamps / exact-duplicate removal
  kLossy,          ///< events dropped, synthesized, or re-attributed
  kUnsalvageable,  ///< violations remain after repair; do not analyze
};

const char* repair_severity_name(RepairSeverity severity) noexcept;

/// One applied fix: which rule fired, where, and how much it changed.
struct RepairAction {
  ViolationKind kind;       ///< violation class that triggered the fix
  RepairStrategy strategy;
  /// Index of the affected event in the trace *as it was when the action was
  /// applied* (indices shift between passes); SIZE_MAX for appended events.
  std::size_t event_index;
  Tick ticks_adjusted = 0;  ///< |new time - old time| for time adjustments
  std::string detail;
};

/// Provenance record of a repair run: every action plus roll-up counters.
struct RepairManifest {
  std::vector<RepairAction> actions;  ///< capped; see actions_truncated
  bool actions_truncated = false;     ///< counters still cover all actions
  RepairSeverity severity = RepairSeverity::kClean;
  std::size_t passes = 0;
  std::size_t events_dropped = 0;
  std::size_t events_synthesized = 0;
  std::size_t events_adjusted = 0;    ///< timestamp changes + reassignments
  Tick total_ticks_adjusted = 0;
  /// Violations still present after the final pass (empty unless severity is
  /// kUnsalvageable).
  std::vector<Violation> remaining;
};

/// Renders the manifest for diagnostics: severity, counters, a per-strategy
/// histogram, and the first few actions.
std::string render_manifest(const RepairManifest& manifest);

struct RepairOptions {
  /// Enables destructive strategies when conservative ones cannot converge:
  /// excising unbalanced barrier episodes and dropping any event the
  /// validator still attributes a violation to.
  bool aggressive = false;
  /// Timing slack for the embedded validation passes (see
  /// ValidateOptions::sync_slack).
  Tick sync_slack = 0;
  /// Triage→fix→revalidate iterations before giving up.
  std::size_t max_passes = 8;
};

struct RepairResult {
  Trace repaired;
  RepairManifest manifest;
};

/// Triages `trace` with the validator and repairs what it can.  Never
/// throws on degraded input: an unrepairable trace comes back with severity
/// kUnsalvageable and the surviving violations in manifest.remaining.
RepairResult repair(const Trace& trace, const RepairOptions& options = {});
/// Same, starting from `violations`: the validator's verdict on `trace` at
/// options.sync_slack, which a caller that already triaged passes in
/// instead of paying for a second validation.
RepairResult repair(const Trace& trace, std::vector<Violation> violations,
                    const RepairOptions& options);

}  // namespace perturb::trace
