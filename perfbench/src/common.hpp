// Shared machinery of the repository benchmark: options, the span tracer,
// the fork-per-phase probe, statistics, and the report every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "support/metrics.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady_clock); comparable across forked children
/// of one run because they share the clock.
std::int64_t now_ns();

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;      ///< reduced input sizes (the benchmark's own test)
  std::string workdir;     ///< scratch for corpora, sockets and span dumps
  std::string break_check; ///< deliberately corrupt one output (self-test)
  std::size_t threads = 4; ///< worker threads for set-up, grid and what-if
};

// ---- spans -----------------------------------------------------------------

/// One timed call into a layer's public function.  `parent` indexes the
/// enclosing span in the same tracer (-1 at top level); `work` is the
/// quantity the layer processed (events, cells, plans) for per-unit rates.
struct Span {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint64_t job = 0;
  std::uint64_t work = 0;
};

/// In-memory span recorder for one thread.  Disabled tracers record
/// nothing and cost one branch per scope.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const noexcept { return on_; }
  std::int32_t open(const char* name, std::uint64_t work, std::uint64_t job);
  void close(std::int32_t id);
  void add_work(std::int32_t id, std::uint64_t work);
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Line-oriented text form, so spans recorded in a forked child can be
  /// shipped to the parent through the phase pipe.
  std::string serialize() const;
  /// Appends serialized spans, re-basing their parent indices.
  static void append(std::vector<Span>& out, const std::string& text);
  /// Appends spans of another recorder, re-basing their parent indices.
  static void append(std::vector<Span>& out, const std::vector<Span>& more);

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t work = 0,
        std::uint64_t job = 0)
      : tracer_(tracer),
        id_(tracer.on() ? tracer.open(name, work, job) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void work(std::uint64_t w) {
    if (id_ >= 0) tracer_.add_work(id_, w);
  }

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Per-name aggregate: self time is each span's duration minus the time
/// its direct children cover.
struct LayerTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t work = 0;
};
std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans);

/// Self nanoseconds per unit of work of one layer (0 when it never ran).
double ns_per_unit(const std::map<std::string, LayerTotals>& totals,
                   const std::string& name);

/// Writes spans as JSON lines (name, start, end, parent, job, work).
void write_spans(const std::string& path, const std::vector<Span>& spans);

// ---- fork-per-phase probe --------------------------------------------------

struct ChildResult {
  bool ok = false;
  std::int64_t rss_kb = 0;  ///< child's peak RSS (ru_maxrss, KiB)
  std::string payload;      ///< what the child's work returned
  std::string error;        ///< why the child failed, when !ok
};

/// Runs `work` in a forked child and returns its peak RSS and payload.
/// Each phase starts from the parent's footprint, so a phase's memory never
/// leaks into the next measurement (the bench_stream probe, generalized to
/// carry a payload).  A child that throws reports !ok with the message.
ChildResult run_child(const std::function<std::string()>& work);

/// Peak RSS of a child that does nothing: the inherited baseline.
std::int64_t null_child_rss_kb();

/// Peak RSS of the calling process so far (KiB).
std::int64_t self_peak_rss_kb();

// ---- statistics ------------------------------------------------------------

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Key=value payload helpers for child results.
using Fields = std::map<std::string, std::string>;
std::string encode_fields(const Fields& fields);
Fields decode_fields(const std::string& text);
double field_num(const Fields& fields, const std::string& key);
/// A double with all its digits, for payloads and output.
std::string num(double value);
/// Multi-line text (serialized spans) folded into one field value.
std::string pack_lines(std::string text);
std::string unpack_lines(std::string text);

/// Counter value from a registry snapshot; 0 when the counter was never
/// registered (its code path did not run).
std::uint64_t counter_value(const perturb::support::MetricsSnapshot& snapshot,
                            const std::string& name);

/// Order-sensitive FNV-1a digest of a trace's events (time, kind, proc, id,
/// object, payload) — compares outputs without keeping both traces.
std::uint64_t trace_digest(const perturb::trace::Trace& trace);

// ---- report ----------------------------------------------------------------

/// A workload-specific figure, printed as a `detail` line for reading only.
/// Metrics BENCHMARK.json names are plain name -> value entries of
/// Report::values; run.py attaches their units and directions.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  ///< "higher" or "lower"
};

/// What one workload run produced.  `values` holds the end-to-end (or, in a
/// traced run, per-layer) metrics by name; `detail` holds the
/// workload-specific figures, printed for reading only.
struct Report {
  std::map<std::string, double> values;
  std::vector<Metric> detail;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Counts one operation or output check; records a failure message.
  void op(bool ok, const std::string& what);
  void add_detail(const std::string& name, double value,
                  const std::string& unit, const std::string& better) {
    detail.push_back({name, value, unit, better});
  }
};

/// The analysis configuration every workload shares: the full plan's probe
/// overheads on the default machine, with the slack measured traces need.
perturb::core::PipelineOptions analysis_options();

/// Runs `setup` `reps` times and returns the median wall time in seconds.
double timed_setups(int reps, const std::function<void()>& setup);

void run_offline(const Options& options, Report& report);
void run_sweep(const Options& options, Report& report);
/// The server.* per-layer metrics: a short open-loop job stream into a
/// forked perturb-server, every reply checked (the traced offline run ends
/// with it).
void measure_server_layers(const Options& options, Report& report);

}  // namespace perfbench
