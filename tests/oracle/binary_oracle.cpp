#include "oracle/binary_oracle.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <sstream>
#include <vector>

#include "support/check.hpp"
#include "support/crc32.hpp"
#include "support/text.hpp"

namespace perturb::trace::oracle {

using support::Crc32;
using support::strf;

namespace {

[[noreturn]] void io_fail(const std::string& msg) { throw IoError(msg); }

[[noreturn]] void malformed_fail(const std::string& msg) {
  throw MalformedTraceError(msg);
}

/// Header-field read: truncation here means the header itself is cut, which
/// is a malformed (unsalvageable) trace rather than a torn body.
template <typename T>
T get_header(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in.good()) malformed_fail("binary trace header truncated");
  return v;
}

/// Bytes left in the stream from the current position, when the stream is
/// seekable; SIZE_MAX otherwise (no way to pre-check, rely on read failures).
std::size_t stream_remaining(std::istream& in) {
  const auto pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return std::numeric_limits<std::size_t>::max();
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos)
    return std::numeric_limits<std::size_t>::max();
  return static_cast<std::size_t>(end - pos);
}

/// Bounds-checked reader over an in-memory (already CRC-verified) block.
struct ByteSource {
  const char* p;
  const char* end;

  template <typename T>
  T get() {
    if (static_cast<std::size_t>(end - p) < sizeof(T))
      io_fail("binary trace block underrun");
    T v{};
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    return v;
  }
};

Event get_event(ByteSource& src) {
  Event e;
  e.time = src.get<Tick>();
  e.payload = src.get<std::int64_t>();
  e.id = src.get<EventId>();
  e.object = src.get<ObjectId>();
  e.proc = src.get<ProcId>();
  const auto kind = src.get<std::uint8_t>();
  if (kind >= kNumEventKinds) io_fail("bad event kind in binary trace");
  e.kind = static_cast<EventKind>(kind);
  return e;
}

/// Parses the CRC-verified v2 header block; any underrun is a malformed
/// header.
TraceInfo parse_header_block(const char* block, std::size_t len,
                             std::uint64_t& count) {
  try {
    ByteSource src{block, block + len};
    const auto name_len = src.get<std::uint32_t>();
    if (name_len > static_cast<std::size_t>(src.end - src.p))
      malformed_fail(
          strf("binary trace header field #name_len %u exceeds header size",
               unsigned(name_len)));
    TraceInfo info;
    info.name.assign(src.p, name_len);
    src.p += name_len;
    info.num_procs = src.get<std::uint32_t>();
    if (info.num_procs > kMaxProcs)
      malformed_fail(strf("binary trace header field #procs %u exceeds sanity cap",
                          unsigned(info.num_procs)));
    info.ticks_per_us = src.get<double>();
    count = src.get<std::uint64_t>();
    return info;
  } catch (const IoError&) {
    malformed_fail("binary trace header truncated");
  }
}

/// Reads the v2 header block (length-prefixed, CRC-trailed).  A trace whose
/// metadata cannot be trusted is unsalvageable.
TraceInfo read_header_v2(std::istream& in, std::uint64_t& count) {
  const auto header_len = get_header<std::uint32_t>(in);
  if (header_len > kMaxNameLen + 64)
    malformed_fail(
        strf("binary trace header field #header_len %u exceeds sanity cap",
             unsigned(header_len)));
  if (header_len > stream_remaining(in))
    malformed_fail("binary trace header truncated");
  std::vector<char> block(header_len);
  in.read(block.data(), static_cast<std::streamsize>(header_len));
  if (!in.good()) malformed_fail("binary trace header truncated");
  const auto crc = get_header<std::uint32_t>(in);
  if (crc != support::crc32(block.data(), block.size()))
    malformed_fail("binary trace header checksum mismatch");
  return parse_header_block(block.data(), block.size(), count);
}

/// Shared v2 chunk-reading loop.  In strict mode any defect throws IoError;
/// in salvage mode reading stops at the first defect and the prefix read so
/// far is kept.
Trace read_v2(std::istream& in, bool salvage, SalvageReport& report) {
  std::uint64_t count = 0;
  const TraceInfo info = read_header_v2(in, count);
  report.version = kVersionV2;
  report.events_declared = static_cast<std::size_t>(count);
  report.chunks_total =
      static_cast<std::size_t>((count + kChunkEvents - 1) / kChunkEvents);

  // Allocation guard: the declared count must fit in the bytes that remain
  // (each event costs kEventBytes plus per-chunk framing).  In salvage mode
  // an over-declared count is just a torn file — the chunk loop below reads
  // whatever chunks survive without ever allocating more than one chunk.
  const auto remaining = stream_remaining(in);
  if (!salvage && remaining != std::numeric_limits<std::size_t>::max() &&
      count > remaining / kEventBytes + 1)
    io_fail(strf("binary trace header field #count %llu exceeds remaining "
                 "stream size (%llu bytes)",
                 static_cast<unsigned long long>(count),
                 static_cast<unsigned long long>(remaining)));

  Trace t(info);
  auto defect = [&](const std::string& msg) {
    if (!salvage) io_fail(msg);
    report.complete = false;
    if (report.detail.empty()) report.detail = msg;
  };

  std::uint64_t read_events = 0;
  std::vector<char> payload;
  while (read_events < count) {
    const std::uint64_t expect =
        std::min<std::uint64_t>(kChunkEvents, count - read_events);
    std::uint32_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof(n));
    if (!in.good()) {
      defect(strf("chunk %zu: frame truncated", t.size() / kChunkEvents));
      break;
    }
    if (n != expect) {
      defect(strf("chunk %zu: declares %u events, expected %llu",
                  t.size() / kChunkEvents, unsigned(n),
                  static_cast<unsigned long long>(expect)));
      break;
    }
    payload.resize(static_cast<std::size_t>(n) * kEventBytes);
    in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!in.good()) {
      defect(strf("chunk %zu: payload truncated", t.size() / kChunkEvents));
      break;
    }
    std::uint32_t crc = 0;
    in.read(reinterpret_cast<char*>(&crc), sizeof(crc));
    Crc32 acc;
    acc.update(&n, sizeof(n));
    acc.update(payload.data(), payload.size());
    if (!in.good() || crc != acc.value()) {
      defect(strf("chunk %zu: checksum mismatch", t.size() / kChunkEvents));
      break;
    }
    ByteSource src{payload.data(), payload.data() + payload.size()};
    bool bad_event = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      // A bad kind under a passing CRC means the file was *written*
      // corrupt; in salvage mode keep the events before it.
      try {
        t.append(get_event(src));
      } catch (const IoError& e) {
        defect(strf("chunk %zu: %s", t.size() / kChunkEvents, e.what()));
        bad_event = true;
        break;
      }
    }
    if (bad_event) break;
    read_events += expect;
    ++report.chunks_recovered;
  }
  report.events_recovered = t.size();
  return t;
}

/// Legacy v1 reader (unframed, no checksums).  Salvage mode keeps the
/// events read before the stream ran out.
Trace read_v1(std::istream& in, bool salvage, SalvageReport& report) {
  const auto name_len = get_header<std::uint32_t>(in);
  if (name_len > kMaxNameLen)
    malformed_fail(
        strf("binary trace header field #name_len %u exceeds sanity cap",
             unsigned(name_len)));
  if (name_len > stream_remaining(in))
    malformed_fail("binary trace header truncated");
  TraceInfo info;
  info.name.assign(name_len, '\0');
  in.read(info.name.data(), static_cast<std::streamsize>(name_len));
  if (!in.good()) malformed_fail("binary trace header truncated");
  info.num_procs = get_header<std::uint32_t>(in);
  if (info.num_procs > kMaxProcs)
    malformed_fail(strf("binary trace header field #procs %u exceeds sanity cap",
                        unsigned(info.num_procs)));
  info.ticks_per_us = get_header<double>(in);
  const auto count = get_header<std::uint64_t>(in);
  report.version = kVersionV1;
  report.events_declared = static_cast<std::size_t>(count);

  const auto remaining = stream_remaining(in);
  if (!salvage && remaining != std::numeric_limits<std::size_t>::max() &&
      count > remaining / kEventBytes + 1)
    io_fail(strf("binary trace header field #count %llu exceeds remaining "
                 "stream size (%llu bytes)",
                 static_cast<unsigned long long>(count),
                 static_cast<unsigned long long>(remaining)));

  Trace t(info);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::vector<char> rec(kEventBytes);
    in.read(rec.data(), static_cast<std::streamsize>(rec.size()));
    if (!in.good()) {
      if (!salvage) io_fail("truncated binary trace");
      report.complete = false;
      report.detail = strf("event %llu of %llu: record truncated",
                           static_cast<unsigned long long>(i),
                           static_cast<unsigned long long>(count));
      break;
    }
    ByteSource src{rec.data(), rec.data() + rec.size()};
    try {
      t.append(get_event(src));
    } catch (const IoError& e) {
      if (!salvage) throw;
      report.complete = false;
      report.detail = e.what();
      break;
    }
  }
  report.events_recovered = t.size();
  return t;
}

Trace read_binary_impl(std::istream& in, bool salvage, SalvageReport& report) {
  char magic[4];
  in.read(magic, 4);
  if (!in.good()) {
    if (in.gcount() == 0) malformed_fail("empty trace file (zero bytes)");
    malformed_fail("bad binary trace magic");
  }
  if (std::memcmp(magic, kMagic, 4) != 0)
    malformed_fail("bad binary trace magic");
  const auto version = get_header<std::uint32_t>(in);
  if (version == kVersionV1) return read_v1(in, salvage, report);
  if (version == kVersionV2) return read_v2(in, salvage, report);
  malformed_fail(strf("unsupported binary trace version %u", unsigned(version)));
}

const char* error_name(ReadOutcome::Error e) {
  switch (e) {
    case ReadOutcome::Error::kNone: return "ok";
    case ReadOutcome::Error::kMalformed: return "MalformedTraceError";
    case ReadOutcome::Error::kIo: return "IoError";
    case ReadOutcome::Error::kOther: return "CheckError";
  }
  return "?";
}

}  // namespace

Trace read_binary(std::istream& in) {
  SalvageReport report;
  return read_binary_impl(in, /*salvage=*/false, report);
}

Trace read_binary_salvage(std::istream& in, SalvageReport& report) {
  report = SalvageReport{};
  return read_binary_impl(in, /*salvage=*/true, report);
}

ReadOutcome read_with_oracle(const std::string& bytes, bool salvage) {
  return capture([&](SalvageReport& report) {
    std::istringstream in(bytes, std::ios::binary);
    return salvage ? read_binary_salvage(in, report) : read_binary(in);
  });
}

ReadOutcome read_with_production(const std::string& bytes, bool salvage) {
  return capture([&](SalvageReport& report) {
    return salvage ? trace::read_binary_salvage(bytes.data(), bytes.size(),
                                                report)
                   : trace::read_binary(bytes.data(), bytes.size());
  });
}

std::string outcome_diff(const ReadOutcome& a, const ReadOutcome& b) {
  if (a.error != b.error || a.what != b.what)
    return strf("outcome %s \"%s\" vs %s \"%s\"", error_name(a.error),
                a.what.c_str(), error_name(b.error), b.what.c_str());
  if (a.error != ReadOutcome::Error::kNone) return {};
  const TraceInfo& ai = a.trace.info();
  const TraceInfo& bi = b.trace.info();
  if (ai.name != bi.name || ai.num_procs != bi.num_procs ||
      std::memcmp(&ai.ticks_per_us, &bi.ticks_per_us, sizeof(double)) != 0)
    return "trace info differs";
  if (a.trace.size() != b.trace.size())
    return strf("%zu vs %zu events", a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i)
    if (!(a.trace[i] == b.trace[i])) return strf("event %zu differs", i);
  const SalvageReport& ar = a.report;
  const SalvageReport& br = b.report;
  if (ar.complete != br.complete || ar.version != br.version ||
      ar.events_declared != br.events_declared ||
      ar.events_recovered != br.events_recovered ||
      ar.chunks_total != br.chunks_total ||
      ar.chunks_recovered != br.chunks_recovered || ar.detail != br.detail)
    return "report \"" + ar.describe() + "\" vs \"" + br.describe() + "\"";
  return {};
}

}  // namespace perturb::trace::oracle
