#include "common.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "experiments/experiments.hpp"
#include "support/check.hpp"

namespace perfbench {

using namespace perturb;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---- spans -----------------------------------------------------------------

std::int32_t Tracer::open(const char* name, std::uint64_t work,
                          std::uint64_t job) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.job = job;
  span.work = work;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(std::move(span));
  stack_.push_back(id);
  spans_.back().start = now_ns();
  return id;
}

void Tracer::close(std::int32_t id) {
  const std::int64_t t = now_ns();
  spans_[static_cast<std::size_t>(id)].end = t;
  PERTURB_CHECK_MSG(!stack_.empty() && stack_.back() == id,
                    "span closed out of order");
  stack_.pop_back();
}

void Tracer::add_work(std::int32_t id, std::uint64_t work) {
  spans_[static_cast<std::size_t>(id)].work += work;
}

std::string Tracer::serialize() const {
  std::string out;
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line, "%s %lld %lld %d %llu %llu\n",
                  s.name.c_str(), static_cast<long long>(s.start),
                  static_cast<long long>(s.end), s.parent,
                  static_cast<unsigned long long>(s.job),
                  static_cast<unsigned long long>(s.work));
    out += line;
  }
  return out;
}

void Tracer::append(std::vector<Span>& out, const std::string& text) {
  const auto base = static_cast<std::int32_t>(out.size());
  std::istringstream in(text);
  Span s;
  long long start = 0;
  long long end = 0;
  unsigned long long job = 0;
  unsigned long long work = 0;
  while (in >> s.name >> start >> end >> s.parent >> job >> work) {
    s.start = start;
    s.end = end;
    s.job = job;
    s.work = work;
    if (s.parent >= 0) s.parent += base;
    out.push_back(s);
  }
}

void Tracer::append(std::vector<Span>& out, const std::vector<Span>& more) {
  const auto base = static_cast<std::int32_t>(out.size());
  for (Span s : more) {
    if (s.parent >= 0) s.parent += base;
    out.push_back(std::move(s));
  }
}

std::map<std::string, LayerTotals> layer_totals(
    const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, LayerTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = totals[spans[i].name];
    const std::int64_t dur = spans[i].end - spans[i].start;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    t.work += spans[i].work;
  }
  return totals;
}

double ns_per_unit(const std::map<std::string, LayerTotals>& totals,
                   const std::string& name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.work == 0) return 0.0;
  return static_cast<double>(it->second.self_ns) /
         static_cast<double>(it->second.work);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const Span& s : spans)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start\":%lld,\"end\":%lld,\"parent\":%d,"
                 "\"job\":%llu,\"work\":%llu}\n",
                 s.name.c_str(), static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.parent,
                 static_cast<unsigned long long>(s.job),
                 static_cast<unsigned long long>(s.work));
  std::fclose(f);
}

// ---- fork-per-phase probe --------------------------------------------------

namespace {

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

ChildResult run_child(const std::function<std::string()>& work) {
  int fds[2];
  PERTURB_CHECK_MSG(::pipe(fds) == 0, "pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  PERTURB_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::string payload;
    char status = 'K';
    try {
      payload = work();
    } catch (const std::exception& e) {
      status = 'E';
      payload = e.what();
    } catch (...) {
      status = 'E';
      payload = "unknown exception";
    }
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto rss = static_cast<std::int64_t>(usage.ru_maxrss);
    const bool wrote =
        write_all(fds[1], &status, 1) &&
        write_all(fds[1], reinterpret_cast<const char*>(&rss), sizeof rss) &&
        write_all(fds[1], payload.data(), payload.size());
    ::_exit(wrote ? 0 : 1);
  }
  ::close(fds[1]);
  std::string bytes;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  ChildResult result;
  const std::size_t head = 1 + sizeof(std::int64_t);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || bytes.size() < head) {
    result.error = "phase child died";
    return result;
  }
  std::memcpy(&result.rss_kb, bytes.data() + 1, sizeof(std::int64_t));
  result.payload = bytes.substr(head);
  result.ok = bytes[0] == 'K';
  if (!result.ok) result.error = result.payload;
  return result;
}

std::int64_t null_child_rss_kb() {
  const ChildResult r = run_child([] { return std::string(); });
  PERTURB_CHECK_MSG(r.ok, "null phase child failed");
  return r.rss_kb;
}

std::int64_t self_peak_rss_kb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::int64_t>(usage.ru_maxrss);
}

// ---- statistics ------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string encode_fields(const Fields& fields) {
  std::string out;
  for (const auto& [key, value] : fields) out += key + "=" + value + "\n";
  return out;
}

Fields decode_fields(const std::string& text) {
  Fields fields;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq != std::string::npos)
      fields[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return fields;
}

double field_num(const Fields& fields, const std::string& key) {
  const auto it = fields.find(key);
  PERTURB_CHECK_MSG(it != fields.end(), "phase result lacks " + key);
  return std::strtod(it->second.c_str(), nullptr);
}

std::uint64_t counter_value(const support::MetricsSnapshot& snapshot,
                            const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string pack_lines(std::string text) {
  std::replace(text.begin(), text.end(), '\n', ';');
  return text;
}

std::string unpack_lines(std::string text) {
  std::replace(text.begin(), text.end(), ';', '\n');
  return text;
}

std::uint64_t trace_digest(const trace::Trace& trace) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const trace::Event& e : trace) {
    mix(static_cast<std::uint64_t>(e.time));
    mix(static_cast<std::uint64_t>(e.kind));
    mix(static_cast<std::uint64_t>(e.proc));
    mix(static_cast<std::uint64_t>(e.id));
    mix(static_cast<std::uint64_t>(e.object));
    mix(static_cast<std::uint64_t>(e.payload));
  }
  return h;
}

// ---- report ----------------------------------------------------------------

void Report::op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

core::PipelineOptions analysis_options() {
  experiments::Setup setup;
  core::PipelineOptions options;
  options.overheads = experiments::overheads_for(
      experiments::make_plan(experiments::PlanKind::kFull, setup),
      setup.machine);
  options.machine = setup.machine;
  options.sync_slack = 130;
  return options;
}

double timed_setups(int reps, const std::function<void()>& setup) {
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t start = now_ns();
    setup();
    secs.push_back(seconds_since(start));
  }
  return median(secs);
}

}  // namespace perfbench
