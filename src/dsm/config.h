// Configuration of a mixed-consistency DSM instance.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/types.h"
#include "net/fault.h"
#include "net/latency.h"
#include "net/reliable.h"
#include "obs/profiler.h"

namespace mc::dsm {

/// Update-propagation policy for a lock's critical sections (Section 6).
enum class LockPolicy : std::uint8_t {
  /// The releaser makes all of its critical-section updates globally
  /// visible (flush probe + acknowledgements) before the unlock completes.
  kEager,
  /// The unlock carries the releaser's vector clock; the next holder blocks
  /// reads until the required updates have arrived.
  kLazy,
  /// Critical-section writes are not broadcast at all; the unlock ships a
  /// write-set digest and the next holder fetches values on first access.
  /// Sound only for entry-consistent programs (Corollary 1) whose protected
  /// variables are declared in `demand_association`.
  kDemand,
};

[[nodiscard]] inline const char* to_string(LockPolicy p) {
  switch (p) {
    case LockPolicy::kEager: return "eager";
    case LockPolicy::kLazy: return "lazy";
    case LockPolicy::kDemand: return "demand";
  }
  return "?";
}

/// Update propagation through the staging buffers (Section 6: "the access
/// pattern of the application can be used to reduce the communication
/// cost"; Munin-style write coalescing, see DESIGN.md §6.3).  Every update
/// leaves a node this way.  Updates accumulate in a staging buffer and ship
/// as one multi-record kUpdate frame per destination.  Staged plain writes
/// to the same variable collapse last-writer-wins and staged deltas merge
/// by summation, so a flush can carry far fewer records than the writes it
/// covers.  The node flushes unconditionally before every synchronization
/// action (lock release, barrier arrival, await, demand-fetch service),
/// which is what keeps Theorem 1's sufficient conditions intact — see
/// DESIGN.md.  With max_updates = 1 (Config's default) every write ships
/// inline as its own one-record frame: the paper's one-message-per-write
/// sketch.  The defaults below are the batched ones.
struct BatchingConfig {
  /// Flush once any destination's staging buffer holds this many records.
  std::size_t max_updates = 16;
  /// ... or once its encoded wire size would exceed roughly this many bytes.
  std::size_t max_bytes = 4096;
  /// Upper bound on how long a staged update may sit before a flush ships
  /// it anyway — bounds staleness for asynchronous readers (e.g. the
  /// Section 5.1 asynchronous solver, which never synchronizes).  The
  /// deadline is a message the node posts into its own mailbox when a
  /// staging run starts (DESIGN.md §6.3).  Mandatory flush-on-sync does not
  /// wait for this.
  std::chrono::nanoseconds max_delay{std::chrono::microseconds(200)};
};

/// Directory-based partial replication (docs/DIRECTORY.md).  Every variable
/// has a *home* node (static modular striping over live processes); writes
/// multicast only to the variable's registered sharers plus its home, and a
/// replica demand-pages in on first read through a bulk fill frame
/// (kFetchBulkResp) served by the home.  Cold replicas are evicted under
/// `replica_budget` with directory deregistration; the home's own copy is
/// pinned, so eviction never drops the last replica.
struct DirectoryConfig {
  /// Maximum demand-paged (non-homed, non-pinned) replicas a node keeps
  /// cached; 0 means unlimited.  A fill that exceeds the budget evicts
  /// whole fill frames, least recently used first (a frame is as recent
  /// as its most recently used member), never the frame it just
  /// installed; pinned members stay.  docs/DIRECTORY.md "Eviction".
  std::size_t replica_budget = 0;
  /// Upper bound on variables per fill frame: a read miss requests the
  /// missing variable plus same-home neighbours up to this many variables
  /// in all (working-set prefetch into one kFetchBulkResp), capped at
  /// replica_budget.  The frame is also the unit of eviction, so 1 gives
  /// per-variable LRU.
  std::size_t fetch_frame = 16;
};

/// Section 6's optimization for PRAM-consistent programs (Corollary 2):
/// "the extra overhead of sending a timestamp in each message and
/// performing the updates in the timestamp order can be avoided if all read
/// operations following a write are PRAM operations."  Updates carry no
/// vector clock (num_procs fewer words per message), both views apply in
/// arrival order, and the synchronization protocol switches to the paper's
/// *count vectors*: barrier arrivals carry per-receiver sent-update counts
/// which the manager transposes, and lazy unlocks carry them for the next
/// holder — Section 6's scheme verbatim.  Causal reads and awaits are
/// rejected at runtime, and demand-driven locks are unavailable.
struct CountVectorConfig {
  /// Access-pattern optimization (Section 6: "the overhead of broadcasting
  /// messages for each update ... may be avoided by making optimizations
  /// based on the patterns of accesses to shared variables").  A variable
  /// listed here is multicast only to its subscribers; everyone else keeps
  /// a stale replica, so only subscribers may read it.  Count vectors
  /// tolerate such per-receiver gaps; vector-clock causal delivery does not.
  std::map<VarId, std::vector<ProcId>> subscribers;
};

struct Config {
  std::size_t num_procs = 2;
  std::size_t num_vars = 64;

  net::LatencyModel latency = net::LatencyModel::zero();
  std::uint64_t seed = 1;

  /// Seeded fault plan installed on the fabric before any protocol traffic
  /// (docs/FAULTS.md).  Absent by default: the fabric stays ideal and the
  /// hot path pays a single null-pointer branch.
  std::optional<net::FaultPlan> faults;

  /// Layer the ack/retransmit reliability protocol (net/reliable.h) under
  /// the DSM.  Required for fault plans that drop or duplicate protocol
  /// traffic — the Section 6 protocols assume reliable FIFO channels.
  bool reliable = false;
  net::ReliabilityConfig reliability;

  /// How updates are staged, coalesced and framed (see BatchingConfig
  /// above).  The default, max_updates = 1, ships every write inline as its
  /// own one-record kUpdate frame to each destination, matching the
  /// paper's naive Section 6 sketch; BatchingConfig{} batches.
  BatchingConfig batching{.max_updates = 1};

  LockPolicy default_lock_policy = LockPolicy::kLazy;
  std::map<LockId, LockPolicy> lock_policy_override;

  /// Variables managed by demand-driven locks: writes while holding the
  /// associated write lock stay local and migrate with the lock.
  std::map<VarId, LockId> demand_association;

  /// Subset barriers (Section 3.1.2: "a barrier can also be defined for a
  /// subset of processes").  A barrier object listed here only rendezvouses
  /// its members; unlisted barrier objects involve every process.  Only
  /// members may arrive at a subset barrier.
  std::map<BarrierId, std::vector<ProcId>> barrier_members;

  /// Elastic membership (dsm/view.h, docs/FAULTS.md "Membership and
  /// views").  The sync manager doubles as a view manager distributing
  /// epoch-stamped membership views: a PeerUnreachable verdict from the
  /// reliability layer (or an explicit MixedSystem::join / Node::leave)
  /// triggers a propose/ack/commit reconfiguration that revokes the
  /// departed process's locks, recomputes barrier membership, and re-seeds
  /// variables whose latest write lived only on the departed node from the
  /// causally-latest surviving replica.  Requires vector-clock mode
  /// (incompatible with count_vectors: count vectors have no per-writer
  /// causality to fence).
  bool elastic = false;

  /// Initial view-0 membership (elastic only).  Absent: every process is a
  /// member from the start.  A configured process left out here starts
  /// outside the view and must MixedSystem::join before running app code.
  std::optional<std::vector<ProcId>> initial_members;

  /// Record every operation into a per-process trace (history checking).
  bool record_trace = false;

  /// Track per-read staleness (docs/METRICS.md `read.staleness_versions.*`
  /// and `read.staleness_vc.*`): how many issued writes to the variable the
  /// reading replica had not yet absorbed, split by PRAM vs causal read
  /// mode.  Off by default — adds one atomic increment per write and a
  /// short mutexed clock merge per timestamped write.
  bool track_staleness = false;

  /// Section 6's count vectors (see CountVectorConfig above); absent, updates
  /// carry vector clocks.  Excludes directory, elastic and demand locks.
  std::optional<CountVectorConfig> count_vectors;

  /// Directory-based partial replication (see DirectoryConfig above).
  /// Requires vector-clock mode, so it excludes count_vectors and with it
  /// static subscriber lists.  Elastic membership is supported: view
  /// commits purge departed sharers and re-home their variables.
  std::optional<DirectoryConfig> directory;

  /// Contention profiler (src/obs/profiler.h, docs/PROFILING.md): per-
  /// variable / per-lock / per-barrier cost attribution in capped-
  /// cardinality sketches, surfaced via MixedSystem::profile() and the
  /// RunReport `profile` section.  Off by default — when unset, every
  /// instrumentation site is a single null-pointer branch and metrics()
  /// carries no `profile.*` keys.
  std::optional<obs::ProfilerOptions> profile;

  [[nodiscard]] LockPolicy policy_of(LockId l) const {
    auto it = lock_policy_override.find(l);
    return it == lock_policy_override.end() ? default_lock_policy : it->second;
  }
};

}  // namespace mc::dsm
