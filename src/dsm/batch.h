// Update frames: the one record format for memory updates and for every
// state snapshot (DESIGN.md §6.3).  A kUpdate frame carries N >= 1 update
// records: a write shipped inline (max_updates = 1) is a one-record frame,
// a flush of several staged records one frame per destination.  A snapshot frame carries one snapshot record
// per variable — value, writer, seq, clock, write epoch, kFlagCounterBase
// for a delta-touched entry, and the staleness baseline — and travels as a
// directory fill or demand fetch reply (kFetchBulkResp) or a view change's
// state transfer (kViewState).
//
// Record 0 rides in the header (a = its w0, c = value, d = seq); b is left
// to the carrying kind (the sender's flush stamp on kUpdate in directory
// mode and on kFetchBulkResp, the flavour on kViewState).  Payload
// (P = num_procs <= 64):
//
//   base clock           P words: component-wise MINIMUM of the record
//                        clocks (coalescing can make record clocks
//                        non-monotone within a frame); absent in
//                        count-vector mode (Config::count_vectors)
//   record 0's tail
//   per record 1..N-1:   w0 = var (bits 0..31) | flags (bits 32..39)
//                        | weight (bits 40..63), then value, seq, tail
//
// A record's tail is its optional words — writer, write epoch, staleness
// baseline, in that order, each present only when the field is not at its
// default — then, in vector-clock mode, its clock: nothing when it equals
// the base, else a mask m (bit k set <=> vc[k] != base[k]) and vc[k] -
// base[k] for each set bit k ascending.  Bits 0x10..0x80 of the flags byte
// say which of these follow; the encoder derives them and the decoder
// strips them, so a record's `flags` hold only the operation and
// kFlagCounterBase.  Records are self-delimiting, so N is implicit.  A
// vector-clock frame with no records (an empty join snapshot) has no
// payload at all: every other vector-clock frame carries its base clock.
// A one-record frame costs exactly a bare timestamped update: the header
// plus P words (plus the epoch word in elastic runs), the header alone in
// count mode.  The payload holds exactly the words a real wire format
// would ship, so Message::wire_bytes() charges the encoded size.
//
// The codec takes the frame's clock width: P words, or 0 for a
// count-vector frame (wire.h frame_clock_words).
//
// `weight` counts the original updates coalesced into a record (LWW
// writes, summed deltas); receivers advance their per-sender receive index
// by it, keeping Section 6's count synchronization truthful.

#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "common/vector_clock.h"
#include "net/message.h"

namespace mc::dsm {

/// One staged (possibly coalesced) update, or one variable's snapshot,
/// inside a frame.
struct BatchRecord {
  VarId var = 0;
  Value value = 0;
  std::uint64_t flags = 0;
  SeqNo seq = 0;
  std::uint64_t weight = 1;
  VectorClock vc;  // empty in count-vector mode
  /// View epoch of the write (elastic runs; 0 otherwise).
  std::uint64_t epoch = 0;
  /// Explicit writer; kNoProc means "the frame sender" in an update and
  /// "never written" in a snapshot.
  ProcId writer = kNoProc;
  /// Staleness baseline shipped with snapshots: the sender's applied-write
  /// count for the variable.
  std::uint64_t baseline = 0;

  friend bool operator==(const BatchRecord&, const BatchRecord&) = default;
};

/// Encode records into one kUpdate frame whose clocks are `clock_words`
/// wide (0: count vectors); snapshot senders re-kind it.  src, dst and b
/// are left for the caller.  `recs` may be empty only in a clocked frame.
[[nodiscard]] net::Message encode_frame(std::span<const BatchRecord> recs,
                                        std::size_t clock_words);

/// Reads a frame produced by encode_frame one record at a time, without
/// allocating: the base clock is read in place, and each record decodes
/// into a caller-owned BatchRecord whose clock storage is reused.
class FrameReader {
 public:
  FrameReader(const net::Message& m, std::size_t clock_words);

  /// True once every record has been read.
  [[nodiscard]] bool done() const { return !first_ && pos_ == m_.payload.size(); }

  /// Decode the next record into `r`, overwriting every field.
  void next(BatchRecord& r);

 private:
  const net::Message& m_;
  std::span<const std::uint64_t> base_;  // empty in count-vector mode
  std::size_t pos_ = 0;
  bool first_ = true;
};

/// Decode a whole frame (tests and snapshots).
[[nodiscard]] std::vector<BatchRecord> decode_frame(const net::Message& m,
                                                    std::size_t clock_words);

}  // namespace mc::dsm
