// The one decoder of binary trace format v2.
//
// ChunkReader yields decoded, CRC-validated event chunks one at a time,
// either over a borrowed in-memory file image (e.g. a FileImage) or from an
// arbitrary byte feed (a socket), so callers can index and analyze a trace
// with O(chunk) resident bytes.  The batch readers in io.hpp are a
// borrowed-mode ChunkReader appending every chunk into one Trace.
//
// Contract: strict mode throws MalformedTraceError on header defects and
// IoError on body defects; salvage mode stops at the first body defect and
// records it in report().  A borrowed image has a known size, so there a
// strict read also rejects a declared event count the remaining bytes
// cannot hold (naming #count) before decoding anything.  The one documented
// divergence between the modes: a feed cannot know its total size, so in
// feed mode an over-declared count surfaces as the chunk defect it tears
// into instead.  Otherwise, on any byte sequence and at any feed
// granularity, both modes yield the same events, the same SalvageReport
// and the same exceptions.  The istream reader under tests/oracle holds
// this decoder to the format's rules.  Format v1 is unframed and cannot be
// streamed; it is rejected (the batch readers decode it separately).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/io.hpp"
#include "trace/trace.hpp"

namespace perturb::trace {

class ChunkReader {
 public:
  enum class Status {
    kChunk,     ///< `out` holds the next validated chunk of events
    kNeedMore,  ///< feed more bytes (or finish()) before the next chunk
    kEnd,       ///< no more events (all read, or salvage stopped at a defect)
  };

  /// Feed-mode reader: push bytes with feed(), call finish() at EOF.
  explicit ChunkReader(bool salvage = false);

  /// Borrowed-image reader over a complete file image (the bytes must
  /// outlive the reader).  Already finished: next() never needs more.
  ChunkReader(const char* data, std::size_t size, bool salvage = false);

  /// Appends bytes to the feed.  Only valid in feed mode, before finish().
  /// Once the reader is done (next() returned kEnd, e.g. after a salvage
  /// stop) the bytes are dropped, so the buffer never holds the rest of a
  /// damaged stream.
  void feed(const char* data, std::size_t size);
  void feed(const std::string& bytes) { feed(bytes.data(), bytes.size()); }

  /// Marks end-of-stream: subsequent next() calls treat missing bytes as
  /// truncation instead of returning kNeedMore.
  void finish() { finished_ = true; }

  /// Parses the magic, version and header if enough bytes are buffered;
  /// returns header_ready().  Borrowed mode always returns true (or
  /// throws).  next() calls this itself.
  bool read_header();

  /// Advances the reader.  On kChunk, `out` is replaced with the chunk's
  /// events.  Strict mode throws on any defect; salvage mode records body
  /// defects in report() and returns kEnd (header defects still throw).
  Status next(std::vector<Event>& out) { return advance(out, 0); }

  /// Like next(), but appends the chunk's events to `out`.
  Status append_next(std::vector<Event>& out) {
    return advance(out, out.size());
  }

  /// True once the v2 header has been parsed; info() and events_declared()
  /// are meaningful from then on.
  bool header_ready() const { return header_ready_; }
  const TraceInfo& info() const { return info_; }
  std::uint64_t events_declared() const { return count_; }

  /// Events handed out via next() so far (including a salvaged partial
  /// chunk's prefix).
  std::uint64_t events_read() const { return decoded_events_; }

  /// Salvage outcome so far; final once next() has returned kEnd.
  const SalvageReport& report() const { return report_; }

 private:
  enum class State { kPreamble, kHeader, kChunks, kDone };

  std::size_t avail() const {
    return (borrowed_ ? data_size_ : buf_.size()) - pos_;
  }
  const char* cur() const {
    return (borrowed_ ? data_ : buf_.data()) + pos_;
  }
  void consume(std::size_t n) { pos_ += n; }

  /// Decodes the next chunk into `out` from index `base` on.
  Status advance(std::vector<Event>& out, std::size_t base);

  /// Body-level defect: strict mode throws IoError; salvage mode records
  /// the first diagnosis, stops the reader and returns kEnd.
  Status defect(const std::string& msg);

  bool salvage_ = false;
  bool borrowed_ = false;
  bool finished_ = false;
  State state_ = State::kPreamble;

  std::string buf_;             ///< feed-mode backing store
  const char* data_ = nullptr;  ///< borrowed-image backing store
  std::size_t data_size_ = 0;
  std::size_t pos_ = 0;  ///< consumed offset into the backing store
  std::uint64_t total_bytes_ = 0;

  TraceInfo info_;
  bool header_ready_ = false;
  std::uint64_t count_ = 0;          ///< events declared by the header
  std::uint64_t read_events_ = 0;    ///< events covered by validated chunks
  std::uint64_t decoded_events_ = 0; ///< events handed out (incl. prefixes)
  SalvageReport report_;
};

}  // namespace perturb::trace
