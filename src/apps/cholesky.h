// Section 5.3: parallel sparse Cholesky factorization, in the paper's two
// formulations:
//
//   - Figure 5 (lock-based): columns are distributed across processes; a
//     process may start column j once count[j] reaches zero (await), and
//     updates to a remote column k happen inside a write-lock critical
//     section guarded by l[k], which also decrements count[k].  Causal
//     reads are required — PRAM reads could miss updates from critical
//     sections before the immediately preceding one (Section 5.3).
//
//   - Counter objects (Section 5.3's optimization, the variant Section 7
//     reports as significantly faster under Maya): every matrix entry and
//     count variable becomes a commutative decrement object, eliminating
//     all critical sections.  Accumulators are pure delta objects (never
//     overwritten); the finished column is published through write-once
//     result variables.

#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "apps/sparse.h"
#include "common/stats.h"
#include "dsm/config.h"
#include "history/history.h"

namespace mc::dsm {
class MixedSystem;
}

namespace mc::apps {

struct CholeskyOptions {
  std::size_t procs = 3;
  net::LatencyModel latency = net::LatencyModel::zero();
  std::uint64_t seed = 1;
  bool record_trace = false;
  dsm::LockPolicy lock_policy = dsm::LockPolicy::kLazy;  // lock variant only

  /// Chaos testing (docs/FAULTS.md): optional seeded fault plan plus the
  /// reliability layer that restores reliable-FIFO delivery beneath it.
  std::optional<net::FaultPlan> faults;
  bool reliable = false;
  /// Tuning for the reliability layer when `reliable` is set.
  net::ReliabilityConfig reliability;

  /// Crash drill (lock variant only; requires `reliable`): run elastic and
  /// crash-stop this process after it finishes its own columns — it goes
  /// silent instead of entering the final barrier, and the survivors
  /// complete once the view change evicts it.  Because the victim has
  /// already released every critical section, the survivors extract the
  /// complete factor (equal to a crash-free run's up to the usual
  /// schedule-dependent update ordering).
  std::optional<ProcId> crash_proc;

  /// Update staging (Config::batching; one-record frames by default).
  /// Batched, the counter variant exercises delta-sum coalescing and the
  /// lock variant flush-on-unlock.
  dsm::BatchingConfig batching{.max_updates = 1};

  /// Directory-based partial replication (Config::directory).  The
  /// counter variant additionally exercises delta
  /// write-allocation (a delta to an uncached variable fills first).
  std::optional<dsm::DirectoryConfig> directory;

  /// Observer hook, called with the constructed MixedSystem before any
  /// process thread starts (see SolverOptions::system_hook).
  std::function<void(dsm::MixedSystem&)> system_hook;

  /// When nonzero, run under a watchdog with this stall deadline: a wedged
  /// run terminates with CholeskyResult::stalled set instead of hanging.
  std::chrono::nanoseconds stall_timeout{0};

  /// Contention profiling (Config::profile): when set, the merged
  /// attribution lands in CholeskyResult::profile.
  std::optional<obs::ProfilerOptions> profile;
};

struct CholeskyResult {
  std::vector<double> l;  // dense row-major lower factor
  double elapsed_ms = 0.0;
  MetricsSnapshot metrics;
  history::History history{0};
  /// Watchdog outcome (only when CholeskyOptions::stall_timeout is set).
  bool stalled = false;
  std::string stall_reason;
  /// Merged contention profile (only when CholeskyOptions::profile is set).
  obs::ProfileReport profile;
};

/// Figure 5: write locks + causal reads.
CholeskyResult cholesky_locks(const SparseSpd& m, const Symbolic& sym,
                              const CholeskyOptions& opt);

/// Counter objects: commutative decrements, no critical sections.
CholeskyResult cholesky_counters(const SparseSpd& m, const Symbolic& sym,
                                 const CholeskyOptions& opt);

}  // namespace mc::apps
