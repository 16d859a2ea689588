// Section 5.1: the synchronous iterative linear-equation solver, in the
// paper's two parallel formulations plus the sequentially consistent
// baseline:
//
//   - Figure 2: barriers split each iteration into a read sub-phase and an
//     install sub-phase; the program is PRAM-consistent (Corollary 2), so
//     all shared reads are PRAM reads.
//   - Figure 3: no barriers — a coordinator handshakes with the workers
//     through `computed`/`updated` flags and await statements; Theorem 1
//     requires causal reads here (PRAM reads can observe inconsistent
//     estimates).
//   - The same barrier algorithm on the SC baseline, as the strong-memory
//     reference point.
//
// A coordinator (process 0) checks convergence; workers own row blocks.
// The arithmetic is shared with the sequential reference (matrix.h), so
// converged results agree bitwise and iteration counts are comparable.

#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "apps/matrix.h"
#include "baseline/sc_system.h"
#include "common/stats.h"
#include "dsm/config.h"

namespace mc::dsm {
class MixedSystem;
}

namespace mc::apps {

struct SolverOptions {
  std::size_t workers = 3;
  double tol = 1e-8;
  std::size_t max_iters = 400;
  net::LatencyModel latency = net::LatencyModel::zero();
  std::uint64_t seed = 1;
  bool record_trace = false;

  /// Section 6 optimization: elide vector timestamps from updates (runs the
  /// system with Config::count_vectors).  Legal for the Figure 2 (barrier +
  /// PRAM) formulation because the program is PRAM-consistent (Corollary
  /// 2); rejected at runtime for Figure 3.
  bool omit_timestamps = false;

  /// Chaos testing (docs/FAULTS.md): optional seeded fault plan applied to
  /// the fabric, plus the reliability layer that rebuilds the paper's
  /// reliable-FIFO channel assumption underneath it.
  std::optional<net::FaultPlan> faults;
  bool reliable = false;
  /// Tuning for the reliability layer when `reliable` is set — most
  /// usefully the delayed-ack stride (ack_every) bench_batching sweeps
  /// against the batching configuration.
  net::ReliabilityConfig reliability;

  /// Update staging (Config::batching; one-record frames by default):
  /// batched, it coalesces and frames the per-write broadcasts.
  /// Flush-on-sync keeps every variant correct.
  dsm::BatchingConfig batching{.max_updates = 1};

  /// Directory-based partial replication (Config::directory): updates multicast only to registered sharers, replicas
  /// demand-page in, cold replicas evict under the budget.  Converged
  /// results are bitwise-identical to full replication.
  std::optional<dsm::DirectoryConfig> directory;

  /// Observer hook, called with the constructed MixedSystem before any
  /// process thread starts — the soak harness uses it to attach a live
  /// ConsistencyMonitor (obs/monitor.h).  The system is destroyed before
  /// the solve call returns, so anything attached must outlive the call.
  std::function<void(dsm::MixedSystem&)> system_hook;

  /// When nonzero, run under a watchdog with this stall deadline: a wedged
  /// run terminates with SolverResult::stalled set instead of hanging.
  std::chrono::nanoseconds stall_timeout{0};

  /// Contention profiling (Config::profile): when set, the merged
  /// attribution lands in SolverResult::profile (the system is destroyed
  /// before the solve returns, so the report is captured for the caller).
  std::optional<obs::ProfilerOptions> profile;
};

struct SolverResult {
  std::vector<double> x;
  std::size_t iterations = 0;
  bool converged = false;
  double elapsed_ms = 0.0;
  MetricsSnapshot metrics;
  /// Watchdog outcome (only when SolverOptions::stall_timeout is set).
  bool stalled = false;
  std::string stall_reason;
  /// Merged contention profile (only when SolverOptions::profile is set).
  obs::ProfileReport profile;
};

/// Figure 2: barriers + PRAM reads on mixed consistency.
SolverResult solve_barrier_pram(const LinearSystem& sys, const SolverOptions& opt);

/// Figure 3: coordinator handshaking + awaits + causal reads.
SolverResult solve_handshake_causal(const LinearSystem& sys, const SolverOptions& opt);

/// Figure 2's algorithm on the sequentially consistent baseline.
SolverResult solve_sc_baseline(const LinearSystem& sys, const SolverOptions& opt);

/// Membership script for solve_barrier_elastic.  Workers are named by
/// worker index w (process w+1); the coordinator (process 0) is always a
/// member and never departs.
struct ElasticSchedule {
  /// Workers in view 0.  Empty means every worker starts as a member.
  std::vector<std::size_t> initial_workers;
  /// worker -> last sweep it computes; it leaves gracefully right after.
  std::map<std::size_t, std::size_t> leave_after;
  /// worker -> sweep after which it crash-stops (goes silent mid-run).
  /// The coordinator does NOT consult this: it keeps planning the victim
  /// until the reliability layer's give-up verdict evicts it — the honest
  /// failure-detection path.  Requires SolverOptions::reliable.
  std::map<std::size_t, std::size_t> crash_after;
  /// Workers outside view 0 that join as soon as their thread starts.
  std::vector<std::size_t> joiners;
};

/// Elastic-membership variant of the Figure 2 barrier solver
/// (Config::elastic).  The coordinator publishes a per-sweep plan of
/// active workers (scripted membership ∩ live view); workers re-partition
/// rows each sweep from the plan; graceful leavers exit at sweep
/// boundaries; joiners align with the in-flight barrier structure via
/// Node::next_barrier_epoch and announce readiness before being planned.
/// A Jacobi sweep is partition-independent, so any crash-free schedule
/// converges bitwise-identically to the fixed-membership solver; runs with
/// crashes still converge (a victim's rows go stale only between its last
/// install and the eviction commit).
SolverResult solve_barrier_elastic(const LinearSystem& sys, const SolverOptions& opt,
                                   const ElasticSchedule& sched);

/// Section 7's closing observation: "equivalence to a sequentially
/// consistent computation may not always be necessary — some asynchronous
/// relaxation algorithms such as Gauss-Seidel iteration converge even with
/// PRAM."  Workers sweep their row blocks Gauss-Seidel style with *no*
/// synchronization, installing each component as soon as it is computed and
/// reading whatever PRAM values have arrived.  Each worker publishes, in an
/// ordinary PRAM-written variable, how many *rounds* it has completed — a
/// sweep finishes a round once every peer has published at least as many —
/// and the coordinator polls the residual and raises `done`, giving up only
/// once the slowest worker has completed max_iters rounds.  Rounds count
/// information exchanged, not raw sweeps or polls, so the verdict does not
/// depend on host speed or scheduling.  `iterations` is the slowest
/// worker's round count.  The result matches
/// the reference solution numerically (same fixed point) but not bitwise,
/// and iteration counts are schedule-dependent.
SolverResult solve_async_gauss_seidel(const LinearSystem& sys, const SolverOptions& opt);

/// Variant hooks used by tests: run Figure 2 with a chosen read label
/// (running it with causal reads is legal and equally correct, just
/// stronger than necessary) and optionally capture the trace.
struct SolverRun {
  SolverResult result;
  history::History history{0};
};
SolverRun solve_barrier_traced(const LinearSystem& sys, const SolverOptions& opt,
                               ReadMode mode);
SolverRun solve_handshake_traced(const LinearSystem& sys, const SolverOptions& opt);

}  // namespace mc::apps
