// The sync manager process (Section 6): every lock and barrier object is
// mapped to "a manager process"; here one manager, on one endpoint and one
// thread, serves all of them and, in elastic mode, the membership views.
//
// Locks: the manager accepts lock/unlock requests and serializes ownership
// into *episodes* — each write tenure is one episode, each maximal group of
// concurrently admitted readers shares one.  Episode numbers define the
// |-> lock synchronization order recorded in traces.  An unlock carries the
// releaser's sync stamp (and, for demand-driven locks, the set of
// variables written in the critical section); the next grant forwards the
// accumulated stamp, the previous episode's holder set, and the
// invalid-variable digest.
//
// Barriers: each process sends an arrival when it reaches the barrier and
// the manager signals every participant to go ahead once all have arrived.
// Instead of the paper's per-phase message-count vectors the default
// stamp aggregates the arrivals' vector clocks: the component-wise maximum
// M satisfies M[j] = (number of updates process j broadcast before
// arriving), exactly the count vector the paper's scheme reconstructs — and
// it doubles as the causal floor for causal reads after the barrier
// (DESIGN.md §6).  Count stamps (Section 6's scheme) are transposed per
// receiver instead.

#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/vector_clock.h"
#include "dsm/view.h"
#include "dsm/watchdog.h"
#include "dsm/wire.h"
#include "net/actor.h"
#include "net/fabric.h"
#include "obs/profiler.h"

namespace mc::dsm {

class SyncManager {
 public:
  /// `members` lists the participants of subset barriers (Section 3.1.2);
  /// barrier objects absent from it involve every process.  `stamp` is the
  /// system's sync-stamp form (wire.h): count stamps are transposed per
  /// receiver at a release and forwarded per grantee at a grant; clocks
  /// are merged.
  ///
  /// With `initial_alive` the manager is also the *view manager*
  /// (dsm/view.h): it distributes epoch-stamped membership views in a
  /// propose/ack/commit exchange on fault reports, joins, and leaves.  A
  /// commit re-masters lock state (dead holders revoked to their episode
  /// boundary, dead requests purged, dead demand-ownership dropped), waives
  /// a departed member's missing barrier arrivals (its recorded arrival
  /// clock stands), and hands a joiner, inside its copy of the commit, the
  /// first instance of each barrier object it participates in.  The mask
  /// names view 0's members.
  SyncManager(net::Fabric& fabric, net::Endpoint self, std::size_t num_procs,
              std::map<BarrierId, std::vector<ProcId>> members = {},
              StampForm stamp = StampForm::kClock,
              std::optional<std::uint64_t> initial_alive = std::nullopt);
  SyncManager(const SyncManager&) = delete;
  SyncManager& operator=(const SyncManager&) = delete;

  /// Join the manager thread (the fabric must have been shut down).
  void join() { actor_.join(); }

  /// Time a request spent queued before its grant was sent
  /// (`lockmgr.grant_wait_ns` in docs/METRICS.md).
  [[nodiscard]] const LatencyHistogram& grant_wait() const { return grant_wait_ns_; }
  [[nodiscard]] std::uint64_t grants_sent() const { return grants_.get(); }
  /// Time from a barrier instance's first arrival to its release
  /// (`barriermgr.assemble_ns`).
  [[nodiscard]] const LatencyHistogram& assemble_time() const { return assemble_ns_; }
  [[nodiscard]] std::uint64_t releases_sent() const { return releases_.get(); }

  /// Messages the manager thread has handled, split by side: barrier
  /// arrivals (`barriermgr.heartbeats`), and lock and view traffic
  /// (`lockmgr.heartbeats`).  Messages the reliability layer
  /// consumes inside the drain (acks, probes, deadlines) are not counted,
  /// so the watchdog's manager probe reads the mailbox's released count
  /// instead (Watchdog::ManagerHealth).
  [[nodiscard]] std::uint64_t lock_heartbeats() const { return lock_heartbeats_.get(); }
  [[nodiscard]] std::uint64_t barrier_heartbeats() const { return barrier_heartbeats_.get(); }

  /// Wait-for edges of the current lock table (each queued requester waits
  /// for every current holder) — the watchdog's deadlock probe.
  [[nodiscard]] std::vector<Watchdog::WaitEdge> wait_edges() const;

  /// Human-readable dumps for the watchdog's diagnostics: every lock with
  /// holders or waiters ("lock 3: mode=write episode=5 holders=[p1]
  /// queue=[p0(w) p2(r)]") and every open barrier instance ("barrier 0
  /// epoch 2: 3/4 arrived, missing=[p1]").
  [[nodiscard]] std::vector<std::string> dump_locks() const;
  [[nodiscard]] std::vector<std::string> dump_barriers() const;

  // --- view manager (elastic membership, dsm/view.h) ---

  /// Current committed view.
  [[nodiscard]] View view() const;
  [[nodiscard]] std::string view_string() const { return view().to_string(); }

  /// Invoked — from the manager thread, without state_mu_ held — right
  /// after each view commit has been sent.  `departed_mask` names the
  /// processes removed by this commit; `joiner` is kNoProc unless this
  /// commit admits one, and then `joined_from` lists, per barrier object,
  /// the first instance it participates in.  MixedSystem uses it to
  /// silence dead reliable channels and to inform the op sink.
  using ViewListener = std::function<void(
      const View&, std::uint64_t departed_mask, ProcId joiner,
      const std::vector<std::pair<BarrierId, std::uint64_t>>& joined_from)>;
  void set_view_listener(ViewListener listener);

  // view.* accounting (docs/METRICS.md)
  [[nodiscard]] std::uint64_t view_changes() const { return view_changes_.get(); }
  [[nodiscard]] std::uint64_t view_joins() const { return view_joins_.get(); }
  [[nodiscard]] std::uint64_t view_leaves() const { return view_leaves_.get(); }
  [[nodiscard]] std::uint64_t view_faults() const { return view_faults_.get(); }
  [[nodiscard]] std::uint64_t locks_revoked() const { return locks_revoked_.get(); }
  [[nodiscard]] std::uint64_t reseed_assignments() const { return reseed_assignments_.get(); }

  /// Attach the manager's contention profiler (owned by MixedSystem;
  /// nullptr unless Config::profile).  Records lock queue depth, contention
  /// (a request that could not be granted on arrival), cross-process
  /// handoffs, and per-barrier-instance arrival skew.  Set before the
  /// fabric starts delivering.
  void set_profiler(obs::ContentionProfiler* p) { profiler_ = p; }

 private:
  struct Request {
    net::Endpoint who;
    LockRequestKind kind;
    std::chrono::steady_clock::time_point enqueued;
  };

  enum class Mode { kFree, kRead, kWrite };

  struct LockState {
    Mode mode = Mode::kFree;
    std::set<net::Endpoint> holders;
    std::deque<Request> queue;
    std::uint64_t episode = 0;
    VectorClock release_vc;  // cumulative merge of unlock clocks
    /// Count stamps: each endpoint's latest unlock sent-count vector.
    std::map<net::Endpoint, VectorClock> unlock_counts;
    std::uint64_t prev_holders_mask = 0;  // endpoints of the finished episode
    std::uint64_t current_unlockers_mask = 0;
    std::map<VarId, net::Endpoint> ownership;  // demand-driven: var -> owner
  };

  struct Instance {
    std::vector<bool> arrived;
    std::size_t count = 0;
    VectorClock merged;
    /// Count stamps: each arriver's sent-count vector, kept for transposition.
    std::map<ProcId, VectorClock> payloads;
    std::chrono::steady_clock::time_point first_arrival;
  };
  using InstanceKey = std::pair<BarrierId, std::uint64_t>;

  /// An in-flight view proposal awaiting acks from every proposed member.
  struct PendingView {
    std::uint64_t epoch = 0;
    std::uint64_t mask = 0;
    std::uint64_t acked_mask = 0;
    ProcId joiner = kNoProc;
    /// Each acker's applied clock (snapshotted after flushing its staging
    /// buffers) — the donor-selection input for re-mastering.
    std::map<ProcId, VectorClock> acked_vc;
  };

  /// Whether a request from `src` must be dropped: elastic traffic from a
  /// process outside the current view is stale (it raced the sender's
  /// eviction; the commit already revoked or waived it).
  [[nodiscard]] bool stale_sender(net::Endpoint src) const;

  void handle_request(const net::Message& m);
  void handle_unlock(const net::Message& m);
  void try_grant(LockId id, LockState& lock);
  void send_grant(LockId id, LockState& lock, const Request& req);

  void handle_arrive(const net::Message& m);
  /// The processes participating in barrier object `b`.
  [[nodiscard]] std::vector<ProcId> members_of(BarrierId b) const;
  /// The members of instance (b, epoch) under the current view: configured
  /// members, alive, and admitted at or before `epoch`.
  [[nodiscard]] std::vector<ProcId> participants_at(BarrierId b, std::uint64_t epoch) const;
  /// Release instance `key` if every current participant has arrived
  /// (vacuously, if membership shrank to none), erasing it.
  void maybe_release(const InstanceKey& key);

  // View protocol (all expect state_mu_ held; sends happen under it, the
  // manager's existing idiom).  `maybe_propose` starts a proposal whenever
  // deferred membership changes exist and none is pending.
  void handle_view_trigger(const net::Message& m);
  void handle_view_ack(const net::Message& m);
  void maybe_propose();
  /// Commit the pending view.  Returns the listener invocation to run
  /// after state_mu_ is released.
  [[nodiscard]] std::function<void()> commit_pending();

  net::Fabric& fabric_;
  net::Endpoint self_;
  std::size_t num_procs_;
  StampForm stamp_;
  bool elastic_ = false;
  std::map<BarrierId, std::vector<ProcId>> members_;
  /// Guards the tables below: the manager thread mutates them, the
  /// watchdog and MixedSystem read them.
  mutable std::mutex state_mu_;
  std::map<LockId, LockState> locks_;
  std::map<InstanceKey, Instance> instances_;

  // View-manager state (guarded by state_mu_).
  View view_;
  std::optional<PendingView> pending_;
  std::uint64_t deferred_remove_mask_ = 0;
  std::uint64_t deferred_join_mask_ = 0;
  ViewListener view_listener_;
  /// Barrier-local epoch each late joiner participates from; processes
  /// absent here are members since epoch 0.
  std::map<BarrierId, std::map<ProcId, std::uint64_t>> member_from_;
  /// Next unreleased barrier-local epoch per object (maintained on release).
  std::map<BarrierId, std::uint64_t> next_epoch_;

  LatencyHistogram grant_wait_ns_, assemble_ns_;
  Counter grants_, releases_;
  Counter lock_heartbeats_, barrier_heartbeats_;
  obs::ContentionProfiler* profiler_ = nullptr;
  Counter view_changes_, view_joins_, view_leaves_, view_faults_;
  Counter locks_revoked_, reseed_assignments_;
  net::Actor actor_{fabric_, self_};
};

}  // namespace mc::dsm
