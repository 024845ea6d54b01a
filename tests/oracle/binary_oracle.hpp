// Test oracle for the binary trace format: the original std::istream
// reader, kept with the tests as an independent reference for the one
// production decoder (trace::ChunkReader behind trace::read_binary).
//
// It decodes v1 and v2 field by field, one event at a time, and shares
// nothing with the production decoder but the format constants and the
// exception types.  On every input it must accept and reject exactly what
// production does, with the same exception type and message, the same
// events and the same SalvageReport.  Nothing shipped links it; the tests
// and the reference rows of bench_pipeline / micro_perturb do.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/io.hpp"
#include "trace/trace.hpp"

namespace perturb::trace::oracle {

/// Strict read of binary format v1 or v2; throws MalformedTraceError on an
/// unusable header and IoError on any body corruption or truncation.
Trace read_binary(std::istream& in);

/// Salvage read: the longest valid prefix, with `report` saying what was
/// recovered and why recovery stopped.
Trace read_binary_salvage(std::istream& in, SalvageReport& report);

/// What one read produced: the trace and report, or what it threw.
struct ReadOutcome {
  enum class Error { kNone, kMalformed, kIo, kOther };
  Error error = Error::kNone;
  std::string what;  ///< the exception's what(), when error != kNone
  Trace trace;
  SalvageReport report;
};

/// Runs `read(report)`, capturing the trace it returns (with `report`) or
/// the exception it throws.
template <typename Read>
ReadOutcome capture(Read&& read) {
  ReadOutcome out;
  try {
    out.trace = read(out.report);
  } catch (const MalformedTraceError& e) {
    out.error = ReadOutcome::Error::kMalformed;
    out.what = e.what();
  } catch (const IoError& e) {
    out.error = ReadOutcome::Error::kIo;
    out.what = e.what();
  } catch (const CheckError& e) {
    out.error = ReadOutcome::Error::kOther;
    out.what = e.what();
  }
  return out;
}

/// Reads `bytes` through the oracle (istream) reader.
ReadOutcome read_with_oracle(const std::string& bytes, bool salvage);

/// Reads `bytes` through the production image reader.
ReadOutcome read_with_production(const std::string& bytes, bool salvage);

/// Empty when the outcomes agree (error class and message, or events, info
/// and every SalvageReport field); otherwise the first difference.
std::string outcome_diff(const ReadOutcome& a, const ReadOutcome& b);

}  // namespace perturb::trace::oracle
