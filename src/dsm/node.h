// A mixed-consistency DSM process (the paper's p_i): the public memory and
// synchronization API of the model, backed by the Section 6 implementation.
//
// Architecture (see DESIGN.md):
//   - every write/delta is stamped with the process's vector clock and
//     broadcast over FIFO channels;
//   - incoming updates are buffered until causally ready and then applied,
//     in that one order, to a single local copy (DESIGN.md decision 1);
//   - a read's label selects which *floor* it blocks on: vector clocks
//     raised by the synchronization machinery (lock grants, barrier
//     releases, await resolutions) and by previously observed values,
//     implementing the |-> lock, |-> bar, |-> await orders and the
//     reads-from obligations of Definitions 2 and 3;
//   - the causal floor absorbs full vector clocks (transitive visibility);
//     the PRAM floor is raised only on the components of *direct*
//     predecessor processes, matching the transitive reduction in
//     Definition 3.
//
// One application thread drives the public API; one internal delivery
// thread applies incoming fabric traffic, a drained batch at a time: in
// arrival order across kinds, each run of consecutive updates under one
// lock hold, one wake-up of the application thread per batch (DESIGN.md
// decision 9).  The same thread ships staged updates whose max_delay ran
// out: the deadline is a message in the node's own mailbox.  All shared
// node state is guarded by a single mutex (CP.20-style scoped locking
// throughout).

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "common/vector_clock.h"
#include "dsm/batch.h"
#include "dsm/config.h"
#include "dsm/store.h"
#include "dsm/trace.h"
#include "dsm/view.h"
#include "dsm/watchdog.h"
#include "dsm/wire.h"
#include "net/actor.h"
#include "net/fabric.h"

namespace mc::obs {
class OpSink;
}

namespace mc::dsm {

/// Per-node instrumentation: operation counts and time spent blocked
/// waiting for consistency obligations (the machine-independent "latency"
/// the paper's Section 6 reasons about).
struct NodeStats {
  Counter reads_pram, reads_causal, writes, deltas, awaits, locks, barriers;
  Counter fetches;
  /// Blocked time of reads and eager unlocks; the other primitives always
  /// wait, so their full latencies below are their blocked times.
  LatencyHistogram read_blocked, unlock_blocked;
  /// Full end-to-end latency of each primitive (recorded on every call,
  /// blocked or not) — surfaced through MixedSystem::metrics() as the
  /// `read.pram_ns` / `read.causal_ns` / `await.spin_ns` / `lock.acquire_ns`
  /// / `barrier.wait_ns` summaries of docs/METRICS.md.
  LatencyHistogram read_pram_ns, read_causal_ns, await_spin_ns, lock_acquire_ns,
      barrier_wait_ns;
  /// Update propagation (Config::batching; docs/METRICS.md `net.batch.*`):
  /// frames sent from the staging buffers, update records they carried,
  /// and original updates absorbed into an already-staged record (LWW
  /// writes / summed deltas) instead of becoming records of their own.
  /// Updated only under the node's mutex, hence with the *_serialized
  /// forms: the inline path pays no locked read-modify-write per write.
  Counter batch_msgs, batch_updates, batch_coalesced;
  /// Records per flushed frame — samples are counts, not nanoseconds
  /// (surfaced as the `net.batch.updates_per_msg` summary).
  LatencyHistogram batch_updates_per_msg;
  /// Read-staleness monitor (Config::track_staleness; dsm/staleness.h):
  /// per-read version lag and vector-clock distance behind the freshest
  /// write known anywhere, split by read mode — samples are counts/
  /// distances, not nanoseconds.
  LatencyHistogram staleness_versions_pram, staleness_versions_causal,
      staleness_vc_pram, staleness_vc_causal;
  /// Elastic membership (Config::elastic; docs/METRICS.md `view.*`):
  /// re-seed / snapshot records this node sent as a donor and applied as a
  /// receiver during view changes.
  Counter reseeds_out, reseeds_in;
  /// Directory-based partial replication (Config::directory;
  /// docs/METRICS.md `directory.*`): bulk fills requested, records they
  /// installed, replicas and whole fill frames evicted under the budget,
  /// frontier probes sent from blocked reads, sharer registrations/
  /// deregistrations seen at this node's home role, writers registered
  /// there, and departed-sharer bits purged at view commits.
  Counter dir_fills, dir_fill_records, dir_evictions, dir_evicted_frames,
      dir_frontier_pings, dir_sharer_adds, dir_sharer_dels, dir_writer_registrations,
      dir_sharers_purged;
  /// Time a read/delta spent blocked on a demand-page fill.
  LatencyHistogram dir_fill_wait_ns;

  [[nodiscard]] std::uint64_t total_blocked_ns() const {
    return read_blocked.sum_ns() + await_spin_ns.sum_ns() + lock_acquire_ns.sum_ns() +
           barrier_wait_ns.sum_ns() + unlock_blocked.sum_ns();
  }
};

class StalenessTable;

class Node {
 public:
  /// `mgr` is the sync manager's endpoint (locks, barriers, views).
  Node(const Config& cfg, ProcId self, net::Fabric& fabric, net::Endpoint mgr,
       StalenessTable* staleness = nullptr);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] ProcId id() const { return self_; }

  // ----- memory operations -----

  /// Read location x under the given label (Definition 4).
  Value read(VarId x, ReadMode mode);

  /// Write value v to location x.
  void write(VarId x, Value v);

  /// Commutative decrement of a counter object (Section 5.3).
  void dec_int(VarId x, std::int64_t amount);
  /// Commutative decrement of a floating-point accumulator (Section 5.3's
  /// counter-object Cholesky subtracts L_ij * L_kj from matrix entries).
  void dec_double(VarId x, double amount);

  // ----- synchronization operations -----

  /// Block until location x holds value v, establishing the |-> await edge
  /// from the resolving write.  Section 6 implements await as a busy-wait
  /// loop of PRAM reads (the default); passing ReadMode::kCausal busy-waits
  /// on the causal view instead — the natural strengthening the Section 5.3
  /// counter-object algorithm needs before causally reading accumulators
  /// whose concurrent deltas the single |-> await edge does not cover.
  void await(VarId x, Value v, ReadMode mode = ReadMode::kPram);

  /// Arrive at barrier object b and block until every process has arrived.
  void barrier(BarrierId b = 0);

  void rlock(LockId l);
  void runlock(LockId l);
  void wlock(LockId l);
  void wunlock(LockId l);

  // ----- elastic membership (Config::elastic; dsm/view.h) -----

  /// Enter the system live: request admission from the view manager and
  /// block until the admitting view has committed (its commit carries the
  /// barrier epochs this process starts at) and the snapshot donor's state
  /// transfer has landed.  Must be called before any other operation by a
  /// process left out of Config::initial_members.
  void join();

  /// Leave gracefully: request exclusion and block until a view without
  /// this process commits.  No lock may be held; no operation may follow.
  void leave();

  /// The membership view this node has fenced to (elastic only).
  [[nodiscard]] View view() const;

  /// The instance of barrier `b` this process will arrive at next.  A
  /// joiner starts at the instance the view manager synced it to, not 0 —
  /// phased programs use this to align a joiner with the barrier structure
  /// already in flight (e.g. which half of a two-barrier sweep comes next).
  [[nodiscard]] std::uint64_t next_barrier_epoch(BarrierId b = 0) const;

  // ----- typed conveniences for the numeric applications -----

  [[nodiscard]] double read_double(VarId x, ReadMode mode) { return double_of(read(x, mode)); }
  void write_double(VarId x, double d) { write(x, value_of(d)); }
  [[nodiscard]] std::int64_t read_int(VarId x, ReadMode mode) { return int_of(read(x, mode)); }
  void write_int(VarId x, std::int64_t i) { write(x, value_of(i)); }
  void await_int(VarId x, std::int64_t i, ReadMode mode = ReadMode::kPram) {
    await(x, value_of(i), mode);
  }

  // ----- introspection -----

  [[nodiscard]] const NodeStats& stats() const { return stats_; }
  [[nodiscard]] const TraceRecorder& trace() const { return trace_; }

  /// Attach (or detach, with nullptr) a watchdog: blocked operations
  /// register themselves and unwind with StallError once it fires.  Set
  /// while no application thread is inside a node operation.
  void set_watchdog(Watchdog* wd) {
    watchdog_.store(wd, std::memory_order_release);
  }

  /// Attach (or detach, with nullptr) a live operation sink (obs/op_sink.h):
  /// every completed operation is handed over as it happens, independently
  /// of Config::record_trace.  Set while no application thread is inside a
  /// node operation.
  void set_op_sink(obs::OpSink* sink) {
    op_sink_.store(sink, std::memory_order_release);
  }

  /// Attach this node's contention profiler (owned by MixedSystem; nullptr
  /// unless Config::profile).  Set before any application thread starts —
  /// when null, every instrumentation site is a single branch.
  void set_profiler(obs::ContentionProfiler* p) { profiler_ = p; }

  /// Join the delivery thread; the fabric must have been shut down first.
  void stop() { actor_.join(); }

 private:
  /// A unit of causal-buffer admission: one kUpdate frame, all of its
  /// records applied atomically (partially applying a coalesced frame
  /// could expose a mid-frame state no per-write history serializes).
  /// `vc` is the component-wise max of the record clocks and is what
  /// readiness and `applied_` advance on.
  struct PendingUpdate {
    std::vector<BatchRecord> recs;
    VectorClock vc;
  };

  struct HeldLock {
    LockRequestKind kind;
    std::uint64_t episode;
    std::vector<VarId> cs_writes;  // demand policy: write-set digest
    /// Grant time, recorded only when profiling (hold-time attribution).
    std::chrono::steady_clock::time_point acquired{};
  };

  /// A grant's or release's sync stamp (wire.h), split into the parts its
  /// form has: per-sender sent-counts and the release clock.
  struct GrantInfo {
    std::uint64_t episode;
    std::uint64_t prev_holders_mask;
    VectorClock release_vc;
    VectorClock counts;
    std::vector<std::pair<VarId, net::Endpoint>> invalid;
    /// Flow id of the kLockGrant message; the blocked application thread
    /// re-emits it so the grant arrow binds to the acquisition span.
    std::uint64_t trace_id = 0;
  };

  struct BarrierRelease {
    VectorClock vc;
    VectorClock counts;
    std::uint64_t trace_id = 0;  // kBarrierRelease flow id (see GrantInfo)
  };

  /// Requester side of a snapshot fetch: a directory fill
  /// (docs/DIRECTORY.md) or a demand-lock fetch.  Kept until the blocked
  /// thread wakes, so a view commit can abort a fill (the reader re-faults
  /// to the re-homed variable's new home) or complete a demand fetch whose
  /// owner departed.
  struct PendingFill {
    std::vector<VarId> vars;
    /// A demand-lock fetch's owner (its snapshot installs forced);
    /// kNoProc for a directory fill.
    ProcId owner = kNoProc;
    bool done = false;
    std::uint64_t trace_id = 0;  // reply flow id (see GrantInfo)
  };

  /// Home side of a directory fill: the snapshot is deferred until every
  /// other registered writer of the fill's variables has flushed its
  /// staging buffers and acknowledged the sharer registration (the ack
  /// fence that makes a freshly paged-in replica satisfy the requester's
  /// causal floor).
  struct ServingFill {
    ProcId requester = kNoProc;
    std::vector<VarId> vars;
    std::uint64_t need_acks = 0;  // procs whose kDirAck is still pending
  };

  // Delivery-thread handlers.  They never wake the application thread
  // themselves: the actor's after-batch hook notifies cv_ once per batch.
  void register_handlers();
  /// The one update handler: applies one kUpdate frame under the mode's
  /// policy — count vectors, directory, or causal (DESIGN.md decision 6).
  /// Expects mu_, which the kUpdate run hook holds across a whole run of
  /// frames before one causal drain.
  void on_update_frame_locked(const net::Message& m);
  /// Directory policy for one decoded frame (expects mu_).
  void apply_dir_frame_locked(ProcId sender, std::span<const BatchRecord> recs);
  /// The next frame from `sender`, whose record clocks merge to `vc`, may
  /// apply now (expects mu_; arrival already checked per-sender FIFO).
  [[nodiscard]] bool causally_ready(const VectorClock& vc, ProcId sender) const;
  void drain_causal_buffers();

  // Elastic view handlers (delivery thread).
  void on_view_propose(const net::Message& m);
  void on_view_commit(const net::Message& m);
  void on_view_state(const net::Message& m);
  void on_view_hello(const net::Message& m);

  // ----- directory-based partial replication (Config::directory) -----

  /// Variable participates in directory management (demand-association
  /// variables keep their migratory protocol and full-broadcast updates).
  [[nodiscard]] bool dir_managed(VarId x) const;
  /// Static home: modular striping of the variable space over processes.
  [[nodiscard]] ProcId static_home(VarId x) const;
  /// First process in ring order from the static home that is present in
  /// `mask` (elastic re-homing rule, evaluated under an arbitrary view).
  [[nodiscard]] ProcId home_under(std::uint64_t mask, VarId x) const;
  /// home_under the current view's alive mask (the static home outside
  /// elastic mode).  Expects mu_.
  [[nodiscard]] ProcId effective_home(VarId x) const;
  /// Pinned replicas are never evicted: the home's own copy (the last-copy
  /// guarantee), counters (a delta-merged value is a sum of local
  /// applications, not refetchable), and fills still in flight.  Expects mu_.
  [[nodiscard]] bool replica_pinned(VarId x) const;
  /// Demand-page x (plus a same-home prefetch frame) from its home and
  /// block until the bulk fill installs.  Expects lk held; releases it
  /// while blocked.
  void request_fill(std::unique_lock<std::mutex>& lk, VarId x);
  /// Before the first write or delta to a directory variable homed
  /// elsewhere: register with its home as a writer (a write-fault
  /// kFetchBulkReq) and block until the home's row arrives, so every later
  /// fill of x fences this node.  No-op once registered.  Expects lk held;
  /// releases it while blocked.
  void register_writer(std::unique_lock<std::mutex>& lk, VarId x);
  /// The one snapshot builder: a frame of one snapshot record per variable
  /// (value, writer, seq, clock, write epoch, kFlagCounterBase when
  /// delta-touched, staleness baseline; dsm/batch.h).  The caller sets
  /// kind, dst and b.  Expects mu_.
  [[nodiscard]] net::Message snapshot_frame_locked(std::span<const VarId> vars) const;
  /// The one snapshot installer.  A counter baseline installs verbatim;
  /// any other record arbitrates LWW, never over a local delta-touched
  /// entry — unless `force` (a demand variable, whose writes the write
  /// lock orders with untick'd clocks).  Expects mu_.
  void install_snapshot_locked(const BatchRecord& r, bool force);
  /// Answer a fill or demand fetch: flush, then one kFetchBulkResp
  /// snapshot of `vars` to `to`.  Expects mu_.
  void send_fetch_response_locked(ProcId to, std::span<const VarId> vars,
                                  std::uint64_t token);
  /// Evict unpinned replicas until the budget holds, deregistering them
  /// with one kDirUnregister per home.  The fill frame is the unit: each
  /// replica belongs to the fill that last installed it, a frame is as
  /// recent as its most recently used member, and whole frames go, least
  /// recent first, in one pass over the keyspace.  Pinned members (homed
  /// variables, counters, in-flight fills) stay resident, and the frame
  /// just installed (`fresh`) is never a victim.  A leftover of a
  /// half-evicted frame would cost an update frame per flush and a second
  /// deregistration later.  With fetch_frame = 1 this is per-variable LRU.
  /// Expects mu_.
  void enforce_budget_locked(std::uint64_t fresh);
  /// Send one kFrontierReq to every alive component whose resolved frontier
  /// lags `floor` and has not been probed at this floor yet (`pinged`
  /// remembers probed levels across predicate re-evaluations).  Expects mu_.
  void ping_lagging_locked(const VectorClock& floor, VectorClock& pinged);

  // Directory handlers (delivery thread; replayed from on_view_commit for
  // messages deferred until this node's view epoch caught up).  The
  // kFetchBulkReq/Resp pair also serves demand-lock fetches.
  void on_fetch_bulk_req(const net::Message& m);
  void on_fetch_bulk_resp(const net::Message& m);
  void on_dir_sharer_add(const net::Message& m);
  void on_dir_ack(const net::Message& m);
  void on_dir_unregister(const net::Message& m);
  void on_dir_sharer_del(const net::Message& m);
  void on_dir_sharer_sync(const net::Message& m);

  /// Directory mode (Config::directory) is the counts-and-clock form.
  [[nodiscard]] bool dir_mode() const { return stamp_ == StampForm::kCountsAndClock; }

  /// The gate of read() and await(): has everything the `mode` label's
  /// floor requires landed here?  Directory mode probes each lagging
  /// component once per floor level (`pinged`).  Expects mu_.
  [[nodiscard]] bool gate_open_locked(ReadMode mode, VectorClock& pinged);
  /// Resume after a barrier release or lock grant: counts raise the count
  /// floor; the clock raises the dependency clock and, outside directory
  /// mode, the read floors (PRAM on `predecessors` only).  Expects mu_.
  void resume_sync_locked(const VectorClock& counts, const VectorClock& clock,
                          std::uint64_t predecessors);

  /// Elastic fence: floor dominance with the dead components waived — a
  /// departed process's updates past our applied frontier will never
  /// arrive, and the view commit's re-mastering covers their effects.
  /// Expects mu_.
  [[nodiscard]] bool floors_met(const VectorClock& applied,
                                const VectorClock& floor) const {
    return elastic_ ? applied.dominates_masked(floor, view_.alive_mask)
                    : applied.dominates(floor);
  }

  // Absorb an observed value/synchronization context: merge into the
  // dependency clock and the causal floor; raise the PRAM floor on the
  // direct predecessor's component only.  In count-vector mode
  // (Config::count_vectors) the entry's per-receiver arrival index raises
  // the count floor instead.
  void absorb_entry(const VarEntry& e);
  /// Register an issued write to x with the staleness table, if any.
  void note_issued_locked(VarId x);

  void do_lock(LockId l, LockRequestKind kind);
  void do_unlock(LockId l, LockRequestKind kind);
  void do_delta(VarId x, Value amount, std::uint64_t flags);

  /// Demand-driven miss handling: fetch x's snapshot from `owner` and
  /// block until it installs (or the owner leaves the view, when the local
  /// copy stands).  Expects `lk` held; releases it while blocked.
  void fetch_var(std::unique_lock<std::mutex>& lk, VarId x, net::Endpoint owner);

  /// Wait with a liveness deadline: a consistency protocol that blocks for
  /// this long is wedged, and tests want a crisp failure.
  template <typename Pred>
  void wait_or_die(std::unique_lock<std::mutex>& lk, const char* what, Pred pred);

  /// True when some consumer (trace recorder or live sink) wants completed
  /// operations materialized.
  [[nodiscard]] bool observing_ops() const {
    return trace_.enabled() || op_sink_.load(std::memory_order_acquire) != nullptr;
  }
  /// Stamp a trace correlation id (when tracing), emit the matching trace
  /// instant, record into the trace, and hand the op to the live sink.
  /// Call with mu_ held, at the op's completion point (see obs/op_sink.h
  /// for the ordering contract).
  void emit_op(history::Operation& op);

  /// A message from this node to `dst` of the given kind and scalar fields.
  [[nodiscard]] net::Message msg_to(net::Endpoint dst, std::uint16_t kind,
                                    std::uint64_t a = 0, std::uint64_t b = 0,
                                    std::uint64_t c = 0, std::uint64_t d = 0) const {
    net::Message m;
    m.src = self_;
    m.dst = dst;
    m.kind = kind;
    m.a = a;
    m.b = b;
    m.c = c;
    m.d = d;
    return m;
  }

  /// Propagate one local update through the staging buffers: stage it for
  /// its destinations, then flush when a buffer reached its threshold
  /// (every write under max_updates = 1: the inline path), or post the
  /// flush deadline when this write started a staging run.  Requires mu_.
  void broadcast_update(VarId x, Value value, std::uint64_t flags, SeqNo seq,
                        const VectorClock& stamp, std::uint64_t epoch = 0);
  /// Destinations of an update to x: directory sharers plus home, or
  /// static_dests_.  Requires mu_.
  [[nodiscard]] std::uint64_t update_dests_locked(VarId x) const;
  [[nodiscard]] bool demand_local_write(VarId x, HeldLock** held_out);

  // ----- staging buffers (Config::batching; DESIGN.md §6.3) -----

  /// Stage one update for every destination in `dests`, coalescing into an
  /// already-staged record when permitted.  Bumps sent_to_ immediately (the
  /// staged record WILL travel — flush-before-sync makes the count truthful
  /// before anyone synchronizes on it).  `epoch` is the writer's view epoch
  /// (travels with the record when nonzero); `writer` overrides the record's
  /// write id owner for directory re-homing offers, where the new home must
  /// apply the original writer's id, not the carrier's.  Requires mu_.
  void stage_update(std::uint64_t dests, VarId x, Value value, std::uint64_t flags,
                    SeqNo seq, const VectorClock& stamp, std::uint64_t epoch = 0,
                    ProcId writer = kNoProc);
  /// Ship every staged record: one frame per destination, encoded once
  /// per distinct frame.  All destinations flush together: uniform flush
  /// boundaries keep batch dependency edges pointing at earlier-flushed
  /// batches only, which is the acyclicity argument for deadlock-freedom
  /// (DESIGN.md §6.3).  Requires mu_.
  void flush_staged_locked();
  /// Encode `recs` once and send the frame to every destination in `dests`.
  void send_frame_locked(std::span<const BatchRecord> recs, std::uint64_t dests);
  [[nodiscard]] bool staging_empty() const { return shared_n_ == 0 && !split_; }
  /// Some destination's buffer reached max_updates or max_bytes.
  [[nodiscard]] bool staging_full_locked() const;
  /// Start a staging run's max_delay clock: post a kFlushDue message into
  /// this node's own mailbox, due when the run's oldest record has waited
  /// max_delay.  The delivery thread flushes on it unless the run has
  /// already shipped.  Requires mu_.
  void post_flush_deadline_locked();
  [[nodiscard]] std::size_t approx_batch_bytes(std::size_t records) const;
  [[nodiscard]] std::size_t approx_record_words() const { return has_clock(stamp_) ? 5 : 3; }

  const Config& cfg_;
  const ProcId self_;
  net::Fabric& fabric_;
  const net::Endpoint mgr_;
  /// The replication mode (wire.h): every question about counts, clocks or
  /// the directory after construction asks this.
  const StampForm stamp_;
  const std::size_t clock_words_;  // of this node's update frames (batch.h)
  /// Per variable, its subscribers' mask (CountVectorConfig::subscribers;
  /// everyone if unlisted).  Empty without subscriber lists.
  const std::vector<std::uint64_t> static_dests_;
  /// Every write of a sender reaches this node (no directory, no
  /// subscribers), so a frame advances its sender by exactly its weight.
  const bool full_replication_;
  /// Shared read-staleness registry (owned by MixedSystem); nullptr unless
  /// Config::track_staleness.
  StalenessTable* const staleness_;
  std::atomic<Watchdog*> watchdog_{nullptr};
  std::atomic<obs::OpSink*> op_sink_{nullptr};
  /// Contention profiler (owned by MixedSystem); nullptr unless profiling.
  obs::ContentionProfiler* profiler_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;

  // The single local copy of shared memory (the paper's "performed
  // locally").  Updates are applied in causally-ready order for *both*
  // read modes; PRAM and causal reads differ only in which floor they
  // block on, not in the state they see.  Two stores applied in different
  // orders (PRAM at arrival, causal at readiness) look identical on the
  // ideal fabric, whose min-heap mailbox delivers in global deliver_at
  // order, but diverge on the winner of concurrent writes once re-stamped
  // retransmissions (docs/FAULTS.md) scramble cross-sender arrival order —
  // and then one process's trace has no single serialization.
  Store mem_;
  VectorClock dep_vc_;
  /// Per-sender clock component of the last update *applied* to mem_.
  VectorClock applied_;
  /// Per-sender position of the last update *received* (applied or still
  /// buffered) — guards the per-channel FIFO invariant.  The position is
  /// the writer's clock component, or its write seq in count-vector mode.
  VectorClock update_arrived_;
  VectorClock pram_floor_;
  VectorClock causal_floor_;
  /// Write ids issued, demand-lock writes included.  Those never tick the
  /// clock, so every stamp a peer compares with clock components (view
  /// hello, directory frontier) carries dep_vc_[self_] instead.
  SeqNo write_counter_ = 0;
  std::vector<std::deque<PendingUpdate>> causal_buffer_;

  // Count-vector protocol state (Section 6's scheme, Config::count_vectors):
  // cumulative update counts per (this sender -> peer) and per
  // (sender -> this receiver), plus the per-sender expected-count floor
  // raised by barriers, lock grants, and observed values.
  VectorClock sent_to_;
  VectorClock received_from_;
  VectorClock count_floor_;

  std::map<LockId, HeldLock> held_;
  std::map<LockId, GrantInfo> pending_grants_;

  std::map<BarrierId, std::uint64_t> barrier_epoch_;
  std::map<std::pair<BarrierId, std::uint64_t>, BarrierRelease> barrier_release_;

  std::uint64_t sync_token_counter_ = 0;
  std::map<std::uint64_t, std::size_t> sync_acks_;

  std::map<VarId, net::Endpoint> invalid_;
  std::uint64_t fill_token_counter_ = 0;
  std::map<std::uint64_t, PendingFill> fills_;  // requester side, by token

  // Directory state (Config::directory; guarded by mu_).
  /// Directory rows: bit p of sharer_mask_[x] set means process p holds a
  /// demand-paged replica of x.  The row is kept at x's home (the
  /// authority) and mirrored at x's registered writers — the only nodes
  /// that address updates to x.  Every change flows from the home on its
  /// FIFO channels (a writer's registration reply, then kDirSharerAdd /
  /// kDirSharerDel), so each mirror sees one order.  Elsewhere a row is
  /// unused and may be stale.
  std::vector<std::uint64_t> sharer_mask_;
  /// Registered writers: at x's home, bit p set means p may write x and is
  /// fenced by every fill of x (the home's own bit is always set); at any
  /// other node only this node's own bit is meaningful, set once its
  /// registration reply has landed.  Elastic runs register every process
  /// for every variable from the start, so re-homing finds full rows at
  /// the survivors.
  std::vector<std::uint64_t> writer_mask_;
  /// Replica presence: homed variables are pinned from the start, others
  /// demand-page in via request_fill and may be evicted back out.
  std::vector<bool> cached_;
  std::vector<std::uint64_t> last_use_;  // LRU ticks ordering eviction
  std::vector<std::uint64_t> frame_of_;  // installing fill's token: eviction unit
  std::uint64_t use_tick_ = 0;
  /// Resolved frontier: resolved_[s] >= k promises that every one of s's
  /// first k writes has either been applied here or was never addressed to
  /// a variable this node caches (in which case the fill ack fence covers
  /// it).  Advanced by the flush stamps of s's update frames and fill
  /// replies and by kFrontierResp — each sent by s after flushing, so FIFO
  /// makes the promise — and by kViewHello.  Fill installs never advance it
  /// from the snapshot's third-party clocks: a third party's direct channel
  /// may still carry in-flight writes.  Directory-mode reads gate their
  /// vector-clock floors on this instead of applied_.
  VectorClock resolved_;
  std::vector<bool> fill_inflight_;  // per variable
  /// Updates that arrived for a variable whose fill is still in flight:
  /// the ack fence registered us before the snapshot shipped, so writers
  /// already multicast to us, but the snapshot may or may not cover each
  /// such write.  They are replayed after the install, deduplicated by the
  /// snapshot clock (on_fetch_bulk_resp).
  std::map<VarId, std::vector<BatchRecord>> fill_backlog_;
  /// Home side, keyed by (requester, requester-local token).
  std::map<std::pair<ProcId, std::uint64_t>, ServingFill> fills_serving_;
  /// Reserved token for the pre-leave handoff probe (fill tokens count up
  /// from 1, so the sentinel can never collide).
  static constexpr std::uint64_t kDirHandoffToken = ~std::uint64_t{0};
  /// New homes whose flush-and-ack probe is still outstanding during a
  /// graceful leave's sole-copy handoff (leave() / on_dir_ack).
  std::uint64_t dir_handoff_wait_ = 0;
  /// Joiner handshake: alive peers whose kDirSharerSync rows have landed.
  std::uint64_t dir_sync_from_ = 0;
  /// Directory messages stamped with a view epoch ahead of ours; replayed
  /// after each commit (epoch agreement makes the ack fence sound across
  /// reconfigurations — see on_dir_sharer_add).
  std::vector<net::Message> dir_deferred_;

  // Elastic membership state (Config::elastic; guarded by mu_).
  const bool elastic_;
  View view_;
  /// Removed from the view without asking: every subsequent blocking
  /// operation unwinds with EvictedError (MixedSystem::run treats it as a
  /// clean per-process exit).
  bool evicted_ = false;
  /// This process requested its own exclusion (leave()); suppresses the
  /// eviction error when the commit lands.
  bool leaving_ = false;
  bool left_ = false;
  /// Joiner handshake progress: the donor's snapshot landed.
  bool snapshot_done_ = false;

  TraceRecorder trace_;
  NodeStats stats_;

  // Staging state (guarded by mu_).  While every staged record shares one
  // destination set, the records are staged once, in the first shared_n_
  // slots of shared_ (the slots past it keep their clock storage for
  // reuse, so the inline path allocates nothing per write beyond the
  // frame).  A record for a different set splits the run: each
  // destination gets its own copy in split_staged_ until the next flush.
  std::vector<BatchRecord> shared_;
  std::size_t shared_n_ = 0;
  std::uint64_t shared_dests_ = 0;
  bool split_ = false;
  std::vector<std::vector<BatchRecord>> split_staged_;  // per destination
  /// Staging runs started; a kFlushDue message names the run it was posted
  /// for, so a deadline whose run a mandatory flush already shipped is a
  /// no-op (the next run posted its own).
  std::uint64_t staging_run_ = 0;

  // Reused receive buffers (guarded by mu_): decoded records and their
  // merged clock.
  std::vector<BatchRecord> frame_;
  VectorClock frame_vc_;

  net::Actor actor_{fabric_, self_};
};

}  // namespace mc::dsm
