// Operations of the formal model (Section 3 of the paper).
//
// A history is a set of operations issued by processes p_0..p_{n-1}:
// memory operations (reads labeled PRAM or causal, writes, and the
// commutative *delta* operations of Section 5.3's counter objects) and
// synchronization operations (read/write lock and unlock, barriers, and
// awaits).  Every operation here is the *complete* invocation/response pair;
// the runtime only emits an operation into a trace once its response event
// has occurred, so traces are complete local histories by construction.

#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace mc::history {

enum class OpKind : std::uint8_t {
  kRead,         ///< r_i(x)v, labeled by ReadMode
  kWrite,        ///< w_i(x)v
  kDelta,        ///< commutative decrement of a counter object (Section 5.3)
  kReadLock,     ///< rl(l)
  kReadUnlock,   ///< ru(l)
  kWriteLock,    ///< wl(l)
  kWriteUnlock,  ///< wu(l)
  kBarrier,      ///< b^k_i
  kAwait,        ///< await(x = v)
};

[[nodiscard]] const char* to_string(OpKind k);

[[nodiscard]] constexpr bool is_memory_op(OpKind k) {
  return k == OpKind::kRead || k == OpKind::kWrite || k == OpKind::kDelta;
}
[[nodiscard]] constexpr bool is_lock_op(OpKind k) {
  return k == OpKind::kReadLock || k == OpKind::kReadUnlock ||
         k == OpKind::kWriteLock || k == OpKind::kWriteUnlock;
}
[[nodiscard]] constexpr bool is_unlock(OpKind k) {
  return k == OpKind::kReadUnlock || k == OpKind::kWriteUnlock;
}
[[nodiscard]] constexpr bool is_sync_op(OpKind k) {
  return is_lock_op(k) || k == OpKind::kBarrier || k == OpKind::kAwait;
}
/// Operations visible to other processes in the restricted causality set of
/// Definition 2: writes (and deltas) plus synchronization operations.
[[nodiscard]] constexpr bool is_globally_visible(OpKind k) {
  return k == OpKind::kWrite || k == OpKind::kDelta || is_sync_op(k);
}

/// Reference to an operation inside a History (dense index).
using OpRef = std::uint32_t;
inline constexpr OpRef kNoOp = ~OpRef{0};

struct Operation {
  OpKind kind = OpKind::kRead;
  ProcId proc = kNoProc;

  /// Memory location (reads/writes/deltas/awaits); kNoVar otherwise.
  VarId var = kNoVar;

  /// Lock object (lock ops only).
  LockId lock = 0;

  /// Barrier object and instance number k (barrier ops only).
  BarrierId barrier = 0;
  std::uint32_t barrier_epoch = 0;

  /// Value written / read / awaited.  For deltas, the (signed) amount
  /// subtracted, encoded via value_of(int64).
  Value value = 0;

  /// Label of a read (Definition 4).  Ignored for other kinds.
  ReadMode mode = ReadMode::kCausal;

  /// Floating-point delta (Section 5.3's counter-object Cholesky subtracts
  /// IEEE doubles, not integers): `value` holds the bit pattern of the
  /// double amount.  A variable touched by any fp delta is an fp counter —
  /// writes and reads of it carry double bit patterns too, and the checkers
  /// compare its values with a relative tolerance instead of exactly
  /// (summation order varies across serializations, so bit-exact equality
  /// would reject correct histories).
  bool fp = false;

  /// Identity bookkeeping replacing the paper's unique-written-values
  /// assumption:
  ///  - writes/deltas: this operation's own WriteId;
  ///  - reads: WriteId of the write the read returned (kInitialWrite when the
  ///    location was never written), used to derive reads-from;
  ///  - awaits: WriteId of the operation that established the awaited value
  ///    (a write, or the final delta), defining the |-> await edge.
  WriteId write_id{};

  /// Lock-grant episode (lock ops only).  The sync manager serializes
  /// ownership of each lock into episodes: each write-lock tenure is its own
  /// episode and each maximal group of concurrently-admitted readers shares
  /// one.  Episodes are numbered per lock in grant order; the |-> lock order
  /// is derived from them (see causality.cpp).
  std::uint64_t lock_episode = 0;

  /// Membership view epoch the issuing process had fenced to when the
  /// operation completed (elastic membership, dsm/view.h).  Always 0 in
  /// fixed-membership runs.  The online monitor uses it to gate barrier
  /// instances across view changes; the offline checkers ignore it (the
  /// |-> orders are derived from the operations themselves) and the text
  /// format does not carry it, like trace_id below.
  std::uint64_t view_epoch = 0;

  /// Chrome-trace correlation id (runtime-only; 0 = none).  When tracing is
  /// enabled the node stamps each operation with a flow id and emits a
  /// matching trace instant, so a live-monitor counterexample (DOT) can name
  /// the exact trace events involved.  Not part of the formal model and not
  /// serialized with histories.
  std::uint64_t trace_id = 0;

  [[nodiscard]] std::string to_string() const;
};

}  // namespace mc::history
