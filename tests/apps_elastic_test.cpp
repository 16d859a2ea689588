// Elastic membership end to end (ISSUE 8, satellite 3): the Section 5
// applications running across view changes.
//
//   - solve_barrier_elastic under crash-free schedules (graceful leave,
//     live join, shrunken initial view) is bitwise-identical to the
//     fixed-membership Figure 2 solver — a Jacobi sweep is
//     partition-independent, so re-partitioning rows never changes the
//     iterates.
//   - Crash-stop mid-solve: the coordinator keeps planning the victim
//     until the reliability layer's give-up verdict evicts it (honest
//     failure detection via keepalive probes); survivors still converge
//     and the online ConsistencyMonitor stays clean across the view
//     change.
//   - cholesky_locks crash drill: the victim goes silent after finishing
//     its columns; survivors complete via eviction with the full factor
//     bitwise-equal to the crash-free run.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "apps/cholesky.h"
#include "apps/equation_solver.h"
#include "dsm/system.h"
#include "obs/monitor.h"

namespace mc::apps {
namespace {

using namespace std::chrono_literals;

constexpr auto kDeadline = 30s;

/// Fast give-up so crash runs reach their PeerUnreachable verdict quickly
/// (~50ms of silence).  Not too fast: under a loaded CI machine a *live*
/// thread can be descheduled for several milliseconds, and a false
/// eviction of the coordinator wedges the run.
void fast_reliability(SolverOptions& opt) {
  opt.reliable = true;
  opt.reliability.initial_rto = 500us;
  opt.reliability.max_rto = 10ms;
  opt.reliability.max_retries = 6;
  opt.reliability.jitter = 0.25;
  opt.reliability.jitter_seed = 9;
}

TEST(ElasticSolver, FixedScheduleMatchesPramSolverBitwise) {
  const LinearSystem sys = LinearSystem::random(16, 3);
  SolverOptions opt;
  opt.workers = 3;
  const auto fixed = solve_barrier_pram(sys, opt);
  const auto elastic = solve_barrier_elastic(sys, opt, ElasticSchedule{});
  ASSERT_TRUE(fixed.converged);
  ASSERT_TRUE(elastic.converged);
  EXPECT_EQ(elastic.iterations, fixed.iterations);
  EXPECT_EQ(max_abs_diff(elastic.x, fixed.x), 0.0)
      << "partition-independent sweeps must be bitwise-identical";
  EXPECT_EQ(elastic.metrics.get("view.changes"), 0u);
}

TEST(ElasticSolver, GracefulLeaveIsBitwiseIdentical) {
  const LinearSystem sys = LinearSystem::random(16, 4);
  SolverOptions opt;
  opt.workers = 3;
  opt.stall_timeout = kDeadline;
  const auto fixed = solve_barrier_pram(sys, opt);
  ASSERT_TRUE(fixed.converged);
  ASSERT_GT(fixed.iterations, 3u);  // the leave must happen mid-run

  ElasticSchedule sched;
  sched.leave_after[1] = 2;  // worker 1 computes sweeps 0..2, then departs
  const auto elastic = solve_barrier_elastic(sys, opt, sched);
  ASSERT_FALSE(elastic.stalled) << elastic.stall_reason;
  ASSERT_TRUE(elastic.converged);
  EXPECT_EQ(elastic.iterations, fixed.iterations);
  EXPECT_EQ(max_abs_diff(elastic.x, fixed.x), 0.0);
  EXPECT_EQ(elastic.metrics.get("view.leaves"), 1u);
  EXPECT_EQ(elastic.metrics.get("view.locks_revoked"), 0u);
  EXPECT_GE(elastic.metrics.get("view.epoch"), 1u);
}

TEST(ElasticSolver, LiveJoinIsBitwiseIdentical) {
  const LinearSystem sys = LinearSystem::random(16, 5);
  SolverOptions opt;
  opt.workers = 3;
  opt.stall_timeout = kDeadline;
  const auto fixed = solve_barrier_pram(sys, opt);
  ASSERT_TRUE(fixed.converged);

  obs::ConsistencyMonitor mon(opt.workers + 1);
  mon.enable_elastic(dsm::mask_of(std::vector<ProcId>{0, 1, 2}));
  opt.system_hook = [&](dsm::MixedSystem& s) { s.attach_op_sink(&mon); };

  ElasticSchedule sched;
  sched.initial_workers = {0, 1};  // worker 2 (process 3) starts outside
  sched.joiners = {2};
  const auto elastic = solve_barrier_elastic(sys, opt, sched);
  ASSERT_FALSE(elastic.stalled) << elastic.stall_reason;
  ASSERT_TRUE(elastic.converged);
  EXPECT_EQ(elastic.iterations, fixed.iterations);
  EXPECT_EQ(max_abs_diff(elastic.x, fixed.x), 0.0)
      << "row re-partitioning around the join must not change iterates";
  EXPECT_EQ(elastic.metrics.get("view.joins"), 1u);
  EXPECT_GE(elastic.metrics.get("view.epoch"), 1u);

  const auto verdict = mon.finalize();
  EXPECT_TRUE(verdict.well_formed) << verdict.error;
  EXPECT_TRUE(verdict.causal.ok && verdict.pram.ok && verdict.mixed.ok);
}

TEST(ElasticSolver, SingleInitialWorkerGrowsToFull) {
  const LinearSystem sys = LinearSystem::random(12, 6);
  SolverOptions opt;
  opt.workers = 3;
  opt.stall_timeout = kDeadline;
  const auto fixed = solve_barrier_pram(sys, opt);
  ASSERT_TRUE(fixed.converged);

  ElasticSchedule sched;
  sched.initial_workers = {0};
  sched.joiners = {1, 2};
  const auto elastic = solve_barrier_elastic(sys, opt, sched);
  ASSERT_FALSE(elastic.stalled) << elastic.stall_reason;
  ASSERT_TRUE(elastic.converged);
  EXPECT_EQ(elastic.iterations, fixed.iterations);
  EXPECT_EQ(max_abs_diff(elastic.x, fixed.x), 0.0);
  EXPECT_EQ(elastic.metrics.get("view.joins"), 2u);
}

TEST(ElasticSolver, CrashMidSolveSurvivorsConvergeUnderNewEpoch) {
  const LinearSystem sys = LinearSystem::random(16, 7);
  SolverOptions opt;
  opt.workers = 3;
  opt.stall_timeout = kDeadline;
  fast_reliability(opt);

  obs::ConsistencyMonitor mon(opt.workers + 1);
  mon.enable_elastic(dsm::full_mask(opt.workers + 1));
  opt.system_hook = [&](dsm::MixedSystem& s) { s.attach_op_sink(&mon); };

  ElasticSchedule sched;
  sched.crash_after[2] = 1;  // worker 2 (process 3) goes silent after sweep 1
  const auto elastic = solve_barrier_elastic(sys, opt, sched);
  ASSERT_FALSE(elastic.stalled) << elastic.stall_reason;
  ASSERT_TRUE(elastic.converged);
  // The victim's rows go stale between its last install and the eviction
  // commit, so the trajectory differs from the fixed-membership run — but
  // the survivors still drive the residual below tolerance.
  std::vector<double> x = elastic.x;
  EXPECT_LT(residual_inf(sys, x), opt.tol);
  EXPECT_GE(elastic.metrics.get("view.faults"), 1u);
  EXPECT_GE(elastic.metrics.get("view.epoch"), 1u);
  EXPECT_GT(elastic.metrics.get("net.keepalives"), 0u);

  const auto verdict = mon.finalize();
  EXPECT_TRUE(verdict.well_formed) << verdict.error;
  EXPECT_TRUE(verdict.causal.ok && verdict.pram.ok && verdict.mixed.ok);
}

TEST(ElasticCholesky, CrashAfterOwnColumnsSurvivorsFinishFullFactor) {
  const SparseSpd m = SparseSpd::random(20, 2, 0.08, 17);
  const Symbolic sym = analyze(m);
  CholeskyOptions opt;
  opt.procs = 3;
  opt.stall_timeout = kDeadline;
  opt.reliable = true;
  opt.reliability.initial_rto = 500us;
  opt.reliability.max_rto = 10ms;
  opt.reliability.max_retries = 6;
  opt.reliability.jitter = 0.25;
  opt.reliability.jitter_seed = 9;

  const auto clean = cholesky_locks(m, sym, opt);
  ASSERT_FALSE(clean.stalled) << clean.stall_reason;

  opt.crash_proc = 2;
  const auto crashed = cholesky_locks(m, sym, opt);
  ASSERT_FALSE(crashed.stalled) << crashed.stall_reason;
  // The victim had finished every column and critical section before going
  // silent, so its contributions all propagated and the survivors extract
  // the complete factor.  Update order to a column varies between
  // schedules (as in the crash-free sweeps), so compare numerically.
  ASSERT_EQ(crashed.l.size(), clean.l.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < clean.l.size(); ++i) {
    worst = std::max(worst, std::abs(clean.l[i] - crashed.l[i]));
  }
  EXPECT_LT(worst, 1e-8);
  EXPECT_LT(factorization_error(m, crashed.l), 1e-8);
  EXPECT_GE(crashed.metrics.get("view.faults"), 1u);
  EXPECT_GE(crashed.metrics.get("view.epoch"), 1u);
  EXPECT_EQ(crashed.metrics.get("view.locks_revoked"), 0u)
      << "the victim held no locks at crash time";
}

}  // namespace
}  // namespace mc::apps
