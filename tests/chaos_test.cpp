// Seeded chaos suite (docs/FAULTS.md): the Section 5 applications and a
// random litmus program running over a lossy, duplicating, delay-spiking
// fabric with the reliability layer rebuilding the reliable-FIFO channel
// the paper assumes.  The point of the whole robustness stack is that
// nothing above the channel can tell the difference: histories still
// satisfy the mixed-consistency conditions and results still match the
// sequential references bitwise.  A final case turns reliability off and
// checks that the watchdog converts the resulting loss into a stall
// report instead of a hang.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <tuple>

#include "apps/cholesky.h"
#include "apps/em_field.h"
#include "apps/em_field2d.h"
#include "apps/equation_solver.h"
#include "common/rng.h"
#include "dsm/system.h"
#include "history/checkers.h"
#include "net/fault.h"

namespace mc::apps {
namespace {

using namespace std::chrono_literals;

/// The standard chaos mix: light loss, duplication, and delay spikes on
/// every channel — enough to exercise retransmit, dedup, and reorder
/// paths without turning short tests into retransmit marathons.
net::FaultPlan chaos_plan(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = 0.05;
  plan.dup_prob = 0.05;
  plan.delay_prob = 0.02;
  plan.delay_factor = 10.0;
  plan.delay_floor = std::chrono::microseconds(50);
  return plan;
}

TEST(Chaos, SolverBarrierPramMatchesReferenceUnderFaults) {
  const LinearSystem sys = LinearSystem::random(8, 2);
  SolverOptions opt;
  opt.workers = 2;
  opt.faults = chaos_plan(101);
  opt.reliable = true;
  const auto ref = jacobi_reference(sys, opt.tol, opt.max_iters);
  const auto run = solve_barrier_traced(sys, opt, ReadMode::kPram);
  ASSERT_TRUE(run.result.converged);
  EXPECT_EQ(run.result.iterations, ref.iterations);
  EXPECT_EQ(max_abs_diff(run.result.x, ref.x), 0.0);
  const auto res = history::check_mixed_consistency(run.history);
  EXPECT_TRUE(res.ok) << res.message();
  // The chaos actually happened: the channel had to repair real loss.
  EXPECT_GT(run.result.metrics.get("net.fault.dropped"), 0u);
  EXPECT_GT(run.result.metrics.get("net.retransmits"), 0u);
}

TEST(Chaos, SolverHandshakeCausalMatchesReferenceUnderFaults) {
  const LinearSystem sys = LinearSystem::random(8, 3);
  SolverOptions opt;
  opt.workers = 2;
  opt.faults = chaos_plan(202);
  opt.reliable = true;
  const auto ref = jacobi_reference(sys, opt.tol, opt.max_iters);
  const auto par = solve_handshake_causal(sys, opt);
  ASSERT_TRUE(par.converged);
  EXPECT_EQ(par.iterations, ref.iterations);
  EXPECT_EQ(max_abs_diff(par.x, ref.x), 0.0);
}

class ChaosLockPolicy : public ::testing::TestWithParam<dsm::LockPolicy> {};

INSTANTIATE_TEST_SUITE_P(Policies, ChaosLockPolicy,
                         ::testing::Values(dsm::LockPolicy::kEager,
                                           dsm::LockPolicy::kLazy),
                         [](const auto& info) {
                           return info.param == dsm::LockPolicy::kEager ? "eager"
                                                                        : "lazy";
                         });

TEST_P(ChaosLockPolicy, CholeskyLocksStayCorrectUnderFaults) {
  const SparseSpd m = SparseSpd::random(12, 2, 0.1, 5);
  const Symbolic sym = analyze(m);
  CholeskyOptions opt;
  opt.procs = 2;
  opt.record_trace = true;
  opt.lock_policy = GetParam();
  opt.faults = chaos_plan(303);
  opt.reliable = true;
  const auto par = cholesky_locks(m, sym, opt);
  EXPECT_LT(factorization_error(m, par.l), 1e-8);
  const auto res = history::check_mixed_consistency(par.history);
  EXPECT_TRUE(res.ok) << res.message();
}

TEST(Chaos, CholeskyCountersStayCorrectUnderFaults) {
  // Floating-point deltas are checkable since the checkers grew fp counter
  // semantics (Operation::fp): reads of accumulator locations are matched
  // with a relative tolerance instead of bit-exact subset sums.
  const SparseSpd m = SparseSpd::random(12, 2, 0.1, 7);
  const Symbolic sym = analyze(m);
  CholeskyOptions opt;
  opt.procs = 2;
  opt.faults = chaos_plan(404);
  opt.reliable = true;
  opt.record_trace = true;
  const auto par = cholesky_counters(m, sym, opt);
  EXPECT_LT(factorization_error(m, par.l), 1e-8);
  EXPECT_GT(par.metrics.get("net.fault.dropped"), 0u);
  EXPECT_GT(par.metrics.get("net.retransmits"), 0u);
  const auto res = history::check_mixed_consistency(par.history);
  EXPECT_TRUE(res.ok) << res.message();
}

TEST(Chaos, EmFieldMatchesReferenceExactlyUnderFaults) {
  EmProblem prob;
  prob.m = 32;
  prob.steps = 8;
  const auto ref = em_reference(prob);
  const auto full = em_mixed(prob, 3, ReadMode::kPram, EmSharing::kFullGrid, {}, 1,
                             false, chaos_plan(505), true);
  EXPECT_EQ(ref.e, full.e);
  EXPECT_EQ(ref.h, full.h);
  const auto ghost = em_mixed(prob, 3, ReadMode::kPram, EmSharing::kGhost, {}, 1,
                              false, chaos_plan(606), true);
  EXPECT_EQ(ref.e, ghost.e);
  EXPECT_EQ(ref.h, ghost.h);
}

TEST(Chaos, Em2dFieldMatchesReferenceExactlyUnderFaults) {
  Em2dProblem prob;
  prob.nx = 16;
  prob.ny = 12;
  prob.steps = 6;
  const auto ref = em2d_reference(prob);
  const auto run = em2d_mixed(prob, 3, ReadMode::kPram, {}, 1, chaos_plan(808), true);
  EXPECT_EQ(ref.ez, run.ez);
  EXPECT_EQ(ref.hx, run.hx);
  EXPECT_EQ(ref.hy, run.hy);
  EXPECT_GT(run.metrics.get("net.fault.dropped"), 0u);
  EXPECT_GT(run.metrics.get("net.retransmits"), 0u);
}

TEST(Chaos, Em2dFieldStaysBitwiseCorrectWithBatchingUnderFaults) {
  // Batching coalesces the per-row boundary writes into framed batches; the
  // ghost rows are plain writes read only after barrier flush points, so
  // the result must stay bitwise equal to the sequential reference even
  // while the fabric drops and duplicates the batches themselves.
  Em2dProblem prob;
  prob.nx = 16;
  prob.ny = 12;
  prob.steps = 6;
  const auto ref = em2d_reference(prob);
  const auto run = em2d_mixed(prob, 3, ReadMode::kPram, {}, 1, chaos_plan(909),
                              true, dsm::BatchingConfig{});
  EXPECT_EQ(ref.ez, run.ez);
  EXPECT_EQ(ref.hx, run.hx);
  EXPECT_EQ(ref.hy, run.hy);
  EXPECT_GT(run.metrics.get("net.batch.msgs"), 0u);
  EXPECT_GT(run.metrics.get("net.fault.dropped"), 0u);
}

TEST(Chaos, SolverStaysBitwiseCorrectWithBatchingUnderFaults) {
  const LinearSystem sys = LinearSystem::random(8, 2);
  SolverOptions opt;
  opt.workers = 3;
  opt.faults = chaos_plan(111);
  opt.reliable = true;
  opt.batching = dsm::BatchingConfig{};
  const auto ref = jacobi_reference(sys, opt.tol, opt.max_iters);
  const auto run = solve_barrier_pram(sys, opt);
  ASSERT_TRUE(run.converged);
  EXPECT_EQ(run.iterations, ref.iterations);
  EXPECT_EQ(max_abs_diff(run.x, ref.x), 0.0);
  EXPECT_GT(run.metrics.get("net.batch.msgs"), 0u);
  EXPECT_GT(run.metrics.get("net.fault.dropped"), 0u);
}

TEST(Chaos, EmFieldStaysBitwiseCorrectWithBatchingUnderFaults) {
  EmProblem prob;
  prob.m = 32;
  prob.steps = 8;
  const auto ref = em_reference(prob);
  const auto run = em_mixed(prob, 3, ReadMode::kPram, EmSharing::kGhost, {}, 1,
                            false, chaos_plan(121), true, dsm::BatchingConfig{});
  EXPECT_EQ(ref.e, run.e);
  EXPECT_EQ(ref.h, run.h);
  EXPECT_GT(run.metrics.get("net.batch.msgs"), 0u);
}

TEST(Chaos, CholeskyCountersCheckWithBatchingUnderFaults) {
  // Delta coalescing sums staged fp decrements before they ship, changing
  // the store's rounding order — covered by the factorization tolerance and
  // the checker's fp tolerance, both 1e-8.
  const SparseSpd m = SparseSpd::random(12, 2, 0.1, 7);
  const Symbolic sym = analyze(m);
  CholeskyOptions opt;
  opt.procs = 2;
  opt.faults = chaos_plan(131);
  opt.reliable = true;
  opt.record_trace = true;
  opt.batching = dsm::BatchingConfig{};
  const auto par = cholesky_counters(m, sym, opt);
  EXPECT_LT(factorization_error(m, par.l), 1e-8);
  EXPECT_GT(par.metrics.get("net.batch.msgs"), 0u);
  const auto res = history::check_mixed_consistency(par.history);
  EXPECT_TRUE(res.ok) << res.message();
}

TEST(Chaos, DirectorySolverStaysBitwiseCorrectUnderFaults) {
  // Directory mode rides on kFetchBulkReq/kFetchBulkResp and the sharer
  // registration frames — all of which the fault plan drops, duplicates,
  // and delays here.  The reliability layer retransmits and dedups them
  // like any other protocol message, so demand paging stays exact.
  const LinearSystem sys = LinearSystem::random(8, 2);
  SolverOptions opt;
  opt.workers = 3;
  opt.faults = chaos_plan(141);
  opt.reliable = true;
  opt.batching = dsm::BatchingConfig{};
  opt.directory = dsm::DirectoryConfig{};
  const auto ref = jacobi_reference(sys, opt.tol, opt.max_iters);
  const auto run = solve_barrier_pram(sys, opt);
  ASSERT_TRUE(run.converged);
  EXPECT_EQ(run.iterations, ref.iterations);
  EXPECT_EQ(max_abs_diff(run.x, ref.x), 0.0);
  EXPECT_GT(run.metrics.get("directory.fills"), 0u);
  EXPECT_GT(run.metrics.get("net.fault.dropped"), 0u);
  EXPECT_GT(run.metrics.get("net.retransmits"), 0u);
}

TEST(Chaos, DirectoryEvictRefetchChurnSurvivesDroppedFillFrames) {
  // A replica budget of 1 forces an evict → re-fetch cycle on nearly every
  // remote read, so the run's correctness leans entirely on fill frames
  // (and their unregister/sharer-del companions) surviving loss and
  // duplication.  A dropped kFetchBulkResp must be retransmitted, a
  // duplicated one discarded by the requester's token check.
  dsm::Config cfg;
  cfg.num_procs = 3;
  cfg.num_vars = 9;
  cfg.faults = chaos_plan(151);
  cfg.reliable = true;
  cfg.batching = dsm::BatchingConfig{};
  dsm::DirectoryConfig dir;
  dir.replica_budget = 1;
  dir.fetch_frame = 1;
  cfg.directory = dir;
  dsm::MixedSystem sys(cfg);
  constexpr int kRounds = 8;
  sys.run([](dsm::Node& n, ProcId p) {
    for (int round = 0; round < kRounds; ++round) {
      for (VarId x = 0; x < 3; ++x) {
        n.write_int(static_cast<VarId>(3 * p + x),
                    1000 * round + 10 * p + static_cast<Value>(x));
      }
      n.barrier();
      for (ProcId q = 0; q < 3; ++q) {
        if (q == p) continue;
        for (VarId x = 0; x < 3; ++x) {
          EXPECT_EQ(n.read_int(static_cast<VarId>(3 * q + x), ReadMode::kPram),
                    1000 * round + 10 * q + static_cast<Value>(x));
        }
      }
      n.barrier();
    }
  });
  const MetricsSnapshot snap = sys.metrics();
  EXPECT_GT(snap.values.at("directory.fills"), 0u);
  EXPECT_GT(snap.values.at("directory.evictions"), 0u);
  EXPECT_GT(snap.values.at("net.msg.fetch_bulk_req"), 0u);
  EXPECT_GT(snap.values.at("net.fault.dropped"), 0u);
  EXPECT_GT(snap.values.at("net.retransmits"), 0u);
}

TEST(Chaos, DirectoryCholeskyCountersCheckUnderFaults) {
  // Delta write-allocation (fill-first) under a lossy fabric: decrements
  // land on demand-paged accumulators while the frames that page them in
  // are themselves being dropped and duplicated.
  const SparseSpd m = SparseSpd::random(12, 2, 0.1, 7);
  const Symbolic sym = analyze(m);
  CholeskyOptions opt;
  opt.procs = 2;
  opt.faults = chaos_plan(161);
  opt.reliable = true;
  opt.record_trace = true;
  opt.batching = dsm::BatchingConfig{};
  opt.directory = dsm::DirectoryConfig{};
  const auto par = cholesky_counters(m, sym, opt);
  EXPECT_LT(factorization_error(m, par.l), 1e-8);
  EXPECT_GT(par.metrics.get("directory.fills"), 0u);
  EXPECT_GT(par.metrics.get("net.fault.dropped"), 0u);
  const auto res = history::check_mixed_consistency(par.history);
  EXPECT_TRUE(res.ok) << res.message();
}

TEST(Chaos, RandomLitmusProgramStillChecksUnderFaults) {
  constexpr std::size_t kVars = 4;
  constexpr std::size_t kLocks = 2;
  constexpr int kSteps = 60;
  dsm::Config cfg;
  cfg.num_procs = 3;
  cfg.num_vars = kVars + 1;  // last var is a shared counter object
  cfg.record_trace = true;
  cfg.faults = chaos_plan(707);
  cfg.reliable = true;
  const VarId counter = kVars;

  dsm::MixedSystem sys(cfg);
  sys.node(0).write_int(counter, 1'000'000);
  // The timeout overload doubles as the liveness assertion: under the
  // repaired channel this program must terminate, not merely not crash.
  const auto out = sys.run(
      [&](dsm::Node& n, ProcId p) {
        n.barrier();  // synchronize with the counter initialization
        Rng rng(977 * (p + 1));
        for (int step = 0; step < kSteps; ++step) {
          if (step % 15 == 14) {
            n.barrier();
            continue;
          }
          switch (rng.below(8)) {
            case 0:
            case 1:
            case 2:
              n.write(static_cast<VarId>(rng.below(kVars)),
                      (std::uint64_t{p} << 32) | static_cast<std::uint64_t>(step));
              break;
            case 3:
            case 4:
              std::ignore = n.read(static_cast<VarId>(rng.below(kVars)),
                                   rng.chance(0.5) ? ReadMode::kPram
                                                   : ReadMode::kCausal);
              break;
            case 5:
              n.dec_int(counter, static_cast<std::int64_t>(rng.below(3)) + 1);
              break;
            default: {
              const auto l = static_cast<LockId>(rng.below(kLocks));
              n.wlock(l);
              const Value v = n.read(0, ReadMode::kCausal);
              n.write(0, v + 1);
              n.wunlock(l);
              break;
            }
          }
        }
        n.barrier();
      },
      30s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;

  const auto h = sys.collect_history();
  const auto res = history::check_mixed_consistency(h);
  EXPECT_TRUE(res.ok) << res.message() << "\n" << h.to_string();
}

TEST(Chaos, WithoutReliabilityTheWatchdogReportsTheStall) {
  // Reliability off, p0's traffic to the manager severed: the run must
  // come back with a stall report — never hang.  (Endpoint layout: procs
  // 0..1, the sync manager 2.)
  dsm::Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 1;
  net::FaultPlan plan;
  plan.channel_drop_prob[{0, 2}] = 1.0;
  cfg.faults = plan;
  dsm::MixedSystem sys(cfg);
  const auto out = sys.run([](dsm::Node& n, ProcId) { n.barrier(); }, 300ms);
  ASSERT_TRUE(out.stalled);
  EXPECT_FALSE(out.diagnostics.stalled_waits.empty());
  // The manager saw p1 arrive and is still waiting on p0 — its occupancy
  // dump names the missing process.
  ASSERT_FALSE(out.diagnostics.barriers.empty());
  EXPECT_NE(out.diagnostics.barriers[0].find("missing"), std::string::npos)
      << out.diagnostics.barriers[0];
}

}  // namespace
}  // namespace mc::apps
