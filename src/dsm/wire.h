// Wire protocol of the mixed-consistency DSM (Section 6 of the paper).
//
// Processes broadcast vector-timestamped updates; one sync manager (locks,
// barriers and views) runs as an ordinary endpoint above the process
// endpoints.  Payload layouts are documented per kind; scalar fields a..d
// are assigned per kind below.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "common/vector_clock.h"
#include "dsm/config.h"
#include "net/fabric.h"

namespace mc::dsm {

enum MsgKind : std::uint16_t {
  /// Memory update frame: N >= 1 records in the dsm/batch.h codec (a, c,
  /// d and the payload).  b = the directory frontier stamp: the sender's own
  /// clock component at flush time (node.h resolved_).
  kUpdate = 1,

  /// Eager-release flush probe.  a=token.  Receiver replies kSyncAck after
  /// the probe is processed (FIFO channels imply all of the sender's prior
  /// updates have reached the receiver by then — applied to its store, or
  /// buffered there until causally ready).
  kSyncReq = 2,
  /// a=token.
  kSyncAck = 3,

  /// a=lock, b=request kind (0=read, 1=write).
  kLockReq = 6,
  /// a=lock, b=episode, c=releasing endpoint (kNoEndpoint if none yet),
  /// d=digest length k; payload = [sync stamp (below): per-sender unlock
  /// sent-counts to the grantee and the merged release clock, k
  /// invalid-variable descriptors (var, owner) pairs].
  kLockGrant = 7,
  /// a=lock, b=request kind, d=digest length k; payload = [sync stamp: the
  /// holder's sent-to counts and dependency clock, k written-variable ids].
  kUnlock = 8,

  /// a=barrier object, b=epoch; payload = sync stamp: the arriving
  /// process's sent-to counts and dependency clock.
  kBarrierArrive = 9,
  /// a=barrier object, b=epoch; payload = sync stamp: the arrivals'
  /// transposed per-sender counts and their merged clock.
  kBarrierRelease = 10,

  // --- elastic membership (dsm/view.h, docs/FAULTS.md) -------------------
  // The view manager is the sync manager; all view traffic flows through
  // its endpoint.

  /// Fault report: the reliability layer gave up on a peer.  a=suspect
  /// process.  Sent node -> view manager.
  kViewFault = 12,
  /// Join request.  a=joining process.  Sent joiner -> view manager.
  kViewJoin = 13,
  /// Graceful-leave request.  a=leaving process.  Sent leaver -> manager.
  kViewLeave = 14,
  /// View proposal.  a=proposed epoch, b=proposed alive mask, c=previous
  /// alive mask.  Multicast manager -> members of the proposed view.
  kViewPropose = 15,
  /// View acknowledgement.  a=acked epoch; payload = the acker's applied
  /// vector clock snapshot (num_procs words), taken after flushing its
  /// staging buffers — the manager uses it to pick re-seed donors.
  kViewAck = 16,
  /// View commit.  a=epoch, b=alive mask, c=joiner (~0 if none),
  /// d=re-seed assignment count k; payload = k (departed proc, donor proc)
  /// pairs.  The joiner's copy appends (barrier, first epoch) pairs: the
  /// instance of each barrier object it participates from, so its local
  /// counters line up with the instances already in flight.  Sent manager
  /// -> every member of the old and new views.
  kViewCommit = 17,
  /// Re-seed / join snapshot transfer.  b=flavour (ViewStateFlavour);
  /// a, c, d and the payload are a snapshot frame (dsm/batch.h) of one
  /// record per variable, possibly empty (a join snapshot is sent even
  /// with nothing to ship).  Counter baselines install verbatim;
  /// everything else LWW-applies (and the write epoch joins the
  /// concurrent-write tiebreak — see store.cpp).
  kViewState = 18,
  /// Survivor -> joiner FIFO baseline.  a=sender's own clock component,
  /// b=epoch; payload = sender's dependency clock.  Sent atomically with
  /// adding the joiner to the sender's broadcast set, so the joiner can
  /// initialise its per-sender FIFO expectation and applied floor for that
  /// component.
  kViewHello = 20,

  // --- directory-based partial replication (docs/DIRECTORY.md) -----------
  // Every variable has a *home* node; updates multicast only to registered
  // sharers plus the home, and replicas demand-page in on first read.  A
  // variable's row lives at its home and at its registered writers.

  /// Snapshot request: requester -> home or demand-lock owner.  a=var count
  /// N, b=fetch token (requester-local), c=requester's view epoch (0
  /// outside elastic mode and on a demand fetch), d=FetchMode; payload = N
  /// variable ids.  A fill asks for the missing variable plus same-home
  /// prefetch candidates.  A write fault registers the requester as a
  /// writer of the N variables and is answered with their rows in one
  /// kDirSharerSync instead of a snapshot (b unused).  A demand fetch asks
  /// a lock-protected variable's last writer for its copy (N=1): no
  /// registration, no fence.  A home behind a fill's stamped epoch defers
  /// the request until its own commit catches up.
  kFetchBulkReq = 21,
  /// Snapshot reply to a fill or demand fetch.  b=the sender's flush stamp,
  /// as on kUpdate (it flushed before shipping, so it advances the
  /// requester's resolved frontier like kFrontierResp); a, c, d and the
  /// payload are a snapshot frame (dsm/batch.h) of one record per
  /// requested variable, followed by one trailing payload word: the token.
  kFetchBulkResp = 22,
  /// Sharer registration, home-serialized.  a=var count N, b=fill token,
  /// c=requesting process, d=home's view epoch; payload = N variable ids.
  /// Multicast home -> the other registered writers of the N variables
  /// (every other live node under elastic membership); each receiver
  /// updates its row mirror, flushes staged updates, and acks (deferring
  /// until its own view epoch catches up to d, so re-homing offers staged
  /// at that commit flush under the fence).
  kDirSharerAdd = 23,
  /// Registration ack: node -> home.  a=fill token, b=requesting process
  /// (tokens are requester-local).  FIFO-ordered behind the acker's
  /// flushed updates, so the home's fill snapshot includes every write
  /// that causally precedes the requester's read floor.
  kDirAck = 24,
  /// Eviction deregistration: evictor -> home.  a=var count N; payload =
  /// N variable ids.
  kDirUnregister = 25,
  /// Sharer removal fan-out: home -> the variables' other registered
  /// writers.  a=var count N, c=evicting process; payload = N variable ids.
  kDirSharerDel = 26,
  /// Write-frontier probe for a blocked read.  No fields: the receiver
  /// flushes its staged updates and replies with its own clock component.
  kFrontierReq = 27,
  /// a=responder's own clock component, FIFO-ordered behind its flushed
  /// updates.
  kFrontierResp = 28,
  /// Authoritative rows: home -> a writer, answering its write-fault
  /// kFetchBulkReq, and each home -> joiner at view commit.  a=pair count
  /// N, b=view epoch (0 on a registration reply); payload = N (var, sharer
  /// mask) pairs for variables the sender homes.  The receiver installs
  /// the rows and is a registered writer of those variables from then on.
  kDirSharerSync = 29,

  /// Local only, never on the wire: a node's staging-run flush deadline,
  /// pushed straight into its own mailbox with deliver_at set to the
  /// deadline (Node::post_flush_deadline_locked).  It bypasses
  /// Fabric::send, so it is never stamped, counted, named or traced.
  /// a=staging run.
  kFlushDue = 30,
};

/// Lock request kinds carried in kLockReq/kUnlock (field b).
enum class LockRequestKind : std::uint64_t { kRead = 0, kWrite = 1 };

/// What a kFetchBulkReq asks for (field d).
enum FetchMode : std::uint64_t { kFetchFill = 0, kFetchWriteFault = 1, kFetchDemand = 2 };

/// Who a kViewState snapshot is for (field b): a donor's re-seed of a
/// departed process's writes to the survivors, the donor's full snapshot
/// to a joiner, or a survivor's self-backfill to a joiner.
enum ViewStateFlavour : std::uint64_t { kReseed = 0, kJoinSnapshot = 1, kSelfBackfill = 2 };

enum UpdateFlags : std::uint64_t {
  kFlagWrite = 0,
  kFlagIntDelta = 1,
  kFlagDoubleDelta = 2,

  /// Mask selecting the operation out of a flags word.  Bits from 0x10 up
  /// belong to the update-frame codec (dsm/batch.h), which derives them.
  kFlagOpMask = 0x7,
  /// Install the record verbatim as a counter baseline (delta-touched
  /// entry shipped whole), bypassing the LWW guard.
  kFlagCounterBase = 0x08,
};

/// The synchronization stamp at the head of a kUnlock, kLockGrant,
/// kBarrierArrive or kBarrierRelease payload, and so a system's one
/// replication mode, fixed by its Config (stamp_form):
///   kClock           a vector clock — the default vector-clock protocol;
///   kCounts          per-process update counts — Section 6's count scheme
///                    (Config::count_vectors);
///   kCountsAndClock  counts, then the clock — directory mode: counts gate
///                    reception, the clock keeps the LWW order.
/// Each part is num_procs words.  Update frames carry clocks iff stamps do.
enum class StampForm : std::uint8_t { kClock, kCounts, kCountsAndClock };

[[nodiscard]] inline StampForm stamp_form(const Config& cfg) {
  if (cfg.directory.has_value()) return StampForm::kCountsAndClock;
  return cfg.count_vectors.has_value() ? StampForm::kCounts : StampForm::kClock;
}
[[nodiscard]] inline bool has_counts(StampForm f) { return f != StampForm::kClock; }
[[nodiscard]] inline bool has_clock(StampForm f) { return f != StampForm::kCounts; }

/// Append the parts of `f` to `out`: `counts` if it has them, then `clock`.
inline void encode_stamp(StampForm f, const VectorClock& counts, const VectorClock& clock,
                         std::vector<std::uint64_t>& out) {
  if (has_counts(f)) out.insert(out.end(), counts.components().begin(), counts.components().end());
  if (has_clock(f)) out.insert(out.end(), clock.components().begin(), clock.components().end());
}

/// Decode the stamp at the head of `payload` into the parts `f` has (the
/// others are left alone); returns the words it spans — the kind's
/// trailer starts there.
inline std::size_t decode_stamp(StampForm f, std::size_t num_procs,
                                std::span<const std::uint64_t> payload, VectorClock& counts,
                                VectorClock& clock) {
  const std::size_t words = (f == StampForm::kCountsAndClock ? 2 : 1) * num_procs;
  MC_CHECK(payload.size() >= words);
  if (has_counts(f)) counts.assign(payload.first(num_procs));
  if (has_clock(f)) clock.assign(payload.subspan(words - num_procs, num_procs));
  return words;
}

/// Register human-readable kind names on a fabric (metrics keys).
inline void register_kind_names(net::Fabric& fabric) {
  fabric.name_kind(kUpdate, "update");
  fabric.name_kind(kSyncReq, "sync_req");
  fabric.name_kind(kSyncAck, "sync_ack");
  fabric.name_kind(kLockReq, "lock_req");
  fabric.name_kind(kLockGrant, "lock_grant");
  fabric.name_kind(kUnlock, "unlock");
  fabric.name_kind(kBarrierArrive, "barrier_arrive");
  fabric.name_kind(kBarrierRelease, "barrier_release");
  fabric.name_kind(kViewFault, "view_fault");
  fabric.name_kind(kViewJoin, "view_join");
  fabric.name_kind(kViewLeave, "view_leave");
  fabric.name_kind(kViewPropose, "view_propose");
  fabric.name_kind(kViewAck, "view_ack");
  fabric.name_kind(kViewCommit, "view_commit");
  fabric.name_kind(kViewState, "view_state");
  fabric.name_kind(kViewHello, "view_hello");
  fabric.name_kind(kFetchBulkReq, "fetch_bulk_req");
  fabric.name_kind(kFetchBulkResp, "fetch_bulk_resp");
  fabric.name_kind(kDirSharerAdd, "dir_sharer_add");
  fabric.name_kind(kDirAck, "dir_ack");
  fabric.name_kind(kDirUnregister, "dir_unregister");
  fabric.name_kind(kDirSharerDel, "dir_sharer_del");
  fabric.name_kind(kFrontierReq, "frontier_req");
  fabric.name_kind(kFrontierResp, "frontier_resp");
  fabric.name_kind(kDirSharerSync, "dir_sharer_sync");
}

}  // namespace mc::dsm
