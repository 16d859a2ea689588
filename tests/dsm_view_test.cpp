// Elastic membership (dsm/view.h, docs/FAULTS.md "Membership and views"):
// the epoch-stamped reconfiguration protocol run by the view manager.
//
// Unit pieces (View mask helpers) plus whole-system protocol tests:
// graceful leave shrinks barriers without revoking anything, a crash-stop
// fault revokes the victim's locks and re-seeds its variables from the
// causally-latest surviving replica, and a live join demand-fetches the
// store under the new epoch before entering the application body.  The
// online ConsistencyMonitor rides along where noted and must stay clean
// across every view change.

#include "dsm/view.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "dsm/system.h"
#include "net/fault.h"
#include "obs/monitor.h"

namespace mc::dsm {
namespace {

using namespace std::chrono_literals;

constexpr auto kDeadline = 30s;

Config elastic_cfg(std::size_t procs) {
  Config cfg;
  cfg.num_procs = procs;
  cfg.num_vars = 128;
  cfg.elastic = true;
  cfg.record_trace = false;
  return cfg;
}

/// Fast give-up so crash tests reach their PeerUnreachable verdict quickly.
void fast_reliability(Config& cfg) {
  cfg.reliable = true;
  cfg.reliability.initial_rto = 200us;
  cfg.reliability.max_rto = 2ms;
  cfg.reliability.max_retries = 3;
  cfg.reliability.tick = 100us;
  cfg.reliability.jitter = 0.25;
  cfg.reliability.jitter_seed = 9;
}

TEST(View, MaskHelpers) {
  View v;
  EXPECT_EQ(v.epoch, 0u);

  v.alive_mask = full_mask(3);
  EXPECT_EQ(v.alive_mask, 0b111u);
  EXPECT_EQ(v.live_count(), 3u);
  EXPECT_TRUE(v.is_alive(0));
  EXPECT_TRUE(v.is_alive(2));
  EXPECT_FALSE(v.is_alive(3));

  v.alive_mask = mask_of(std::vector<ProcId>{0, 2});
  EXPECT_EQ(v.alive_mask, 0b101u);
  EXPECT_FALSE(v.is_alive(1));
  EXPECT_EQ(v.members(), (std::vector<ProcId>{0, 2}));

  v.epoch = 4;
  EXPECT_EQ(v.to_string(), "epoch 4 {0,2}");

  EXPECT_EQ(full_mask(64), ~std::uint64_t{0});
  EXPECT_EQ(popcount64(~std::uint64_t{0}), 64u);
  EXPECT_EQ(popcount64(0), 0u);
}

// A process that leaves gracefully: flushes, departs without revocations,
// and the survivors' next barrier rendezvouses the shrunken membership.
TEST(ElasticView, GracefulLeaveShrinksBarriersWithoutRevocation) {
  Config cfg = elastic_cfg(3);
  MixedSystem sys(cfg);

  obs::ConsistencyMonitor mon(3);
  mon.enable_elastic(full_mask(3));
  sys.attach_op_sink(&mon);

  const auto outcome = sys.run(
      [&](Node& n, ProcId p) {
        n.write_int(/*x=*/p, 100 + static_cast<std::int64_t>(p));
        n.barrier();
        for (ProcId q = 0; q < 3; ++q) {
          EXPECT_EQ(n.read_int(q, ReadMode::kPram), 100 + q);
        }
        if (p == 2) {
          n.leave();
          return;  // clean departure; no further participation
        }
        // Survivors: wait for the commit, then synchronize as a pair.
        while (n.view().epoch == 0) std::this_thread::sleep_for(200us);
        n.write_int(/*x=*/10 + p, 7);
        n.barrier();
        EXPECT_EQ(n.read_int(10 + (1 - p), ReadMode::kPram), 7);
      },
      kDeadline);
  EXPECT_FALSE(outcome.stalled) << outcome.diagnostics.reason;

  const View v = sys.view();
  EXPECT_EQ(v.epoch, 1u);
  EXPECT_EQ(v.live_count(), 2u);
  EXPECT_FALSE(v.is_alive(2));

  const auto snap = sys.metrics();
  EXPECT_EQ(snap.get("view.epoch"), 1u);
  EXPECT_EQ(snap.get("view.leaves"), 1u);
  EXPECT_EQ(snap.get("view.faults"), 0u);
  EXPECT_EQ(snap.get("view.locks_revoked"), 0u);

  const auto verdict = mon.finalize();
  EXPECT_TRUE(verdict.well_formed) << verdict.error;
  EXPECT_TRUE(verdict.causal.ok && verdict.pram.ok && verdict.mixed.ok);
  EXPECT_FALSE(mon.status().structural_failed);
}

// Crash-stop mid-run: the victim holds a write lock and owns the latest
// write of a variable when its endpoint goes silent.  The reliability
// layer's give-up verdict must drive a view change that revokes the lock
// (the blocked survivor acquires it) and re-seeds the variable from a
// surviving replica so the LWW winner stays well-defined.
TEST(ElasticView, CrashRevokesLocksAndReseedsVariables) {
  Config cfg = elastic_cfg(3);
  fast_reliability(cfg);
  MixedSystem sys(cfg);

  constexpr VarId kShared = 100;  // victim's last write, replicated pre-crash
  constexpr VarId kAck0 = 101, kAck1 = 102;
  constexpr LockId kLock = 7;

  const auto outcome = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 2) {
          n.wlock(kLock);
          n.write_int(kShared, 55);
          // Make sure both survivors *applied* the write before dying, so
          // the causally-latest surviving replica is well-defined.
          n.await_int(kAck0, 1);
          n.await_int(kAck1, 1);
          net::FaultPlan crash;
          crash.crash_after_sends[/*endpoint=*/2] = 0;
          sys.fabric().inject_faults(crash);
          n.write_int(kShared, 56);  // tripwire: dropped, dies with the node
          return;                    // crash-stop: still holding kLock
        }
        n.await_int(kShared, 55);
        n.write_int(p == 0 ? kAck0 : kAck1, 1);
        // Heartbeats generate traffic toward the corpse until a channel
        // exhausts its retries and the view manager commits the eviction.
        std::int64_t beat = 0;
        while (n.view().epoch == 0) {
          n.write_int(/*x=*/110 + p, ++beat);
          std::this_thread::sleep_for(500us);
        }
        if (p == 0) {
          n.wlock(kLock);  // would deadlock forever without revocation
          EXPECT_EQ(n.read_int(kShared, ReadMode::kPram), 55);
          n.wunlock(kLock);
        }
        EXPECT_EQ(n.read_int(kShared, ReadMode::kCausal), 55);
      },
      kDeadline);
  EXPECT_FALSE(outcome.stalled) << outcome.diagnostics.reason;

  const View v = sys.view();
  EXPECT_GE(v.epoch, 1u);
  EXPECT_EQ(v.live_count(), 2u);
  EXPECT_FALSE(v.is_alive(2));

  const auto snap = sys.metrics();
  EXPECT_GE(snap.get("view.faults"), 1u);
  EXPECT_EQ(snap.get("view.locks_revoked"), 1u);
  // The victim's kShared write was re-mastered: one donor assignment, and
  // re-seed records actually moved.
  EXPECT_GE(snap.get("view.reseed_assignments"), 1u);
  EXPECT_GE(snap.get("view.reseed_records_out"), 1u);
  EXPECT_GE(snap.get("view.reseed_records_in"), 1u);
}

// Live join: a process outside the initial view joins mid-run, receives
// the store by state transfer under the new epoch, and participates in
// awaits, locks, and full barriers as a first-class member.
TEST(ElasticView, LiveJoinTransfersStateAndJoinsBarriers) {
  Config cfg = elastic_cfg(3);
  cfg.initial_members = std::vector<ProcId>{0, 1};
  MixedSystem sys(cfg);

  obs::ConsistencyMonitor mon(3);
  mon.enable_elastic(mask_of(std::vector<ProcId>{0, 1}));
  sys.attach_op_sink(&mon);

  constexpr VarId kA = 0, kB = 1, kC = 2, kUnderLock = 4;
  constexpr LockId kLock = 1;

  const auto outcome = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 2) {
          n.join();
          EXPECT_TRUE(n.view().is_alive(2));
          // Pre-join writes must be visible (donor snapshot or update).
          n.await_int(kA, 11);
          n.await_int(kB, 22);
          n.wlock(kLock);
          n.write_int(kUnderLock, 44);
          n.wunlock(kLock);
          n.write_int(kC, 33);  // releases the others into the barrier
        } else {
          n.write_int(p == 0 ? kA : kB, p == 0 ? 11 : 22);
          n.await_int(kC, 33);
        }
        n.barrier();  // full barrier: all three, under epoch 1
        EXPECT_EQ(n.read_int(kA, ReadMode::kPram), 11);
        EXPECT_EQ(n.read_int(kB, ReadMode::kPram), 22);
        EXPECT_EQ(n.read_int(kC, ReadMode::kPram), 33);
        if (p == 0) {
          n.wlock(kLock);
          EXPECT_EQ(n.read_int(kUnderLock, ReadMode::kPram), 44);
          n.wunlock(kLock);
        }
      },
      kDeadline);
  EXPECT_FALSE(outcome.stalled) << outcome.diagnostics.reason;

  const View v = sys.view();
  EXPECT_EQ(v.epoch, 1u);
  EXPECT_EQ(v.live_count(), 3u);
  EXPECT_TRUE(v.is_alive(2));

  const auto snap = sys.metrics();
  EXPECT_EQ(snap.get("view.joins"), 1u);
  EXPECT_EQ(snap.get("view.locks_revoked"), 0u);

  const auto verdict = mon.finalize();
  EXPECT_TRUE(verdict.well_formed) << verdict.error;
  EXPECT_TRUE(verdict.causal.ok && verdict.pram.ok && verdict.mixed.ok);
  EXPECT_FALSE(mon.status().structural_failed);
}

// A demand-lock write takes a write id but never ticks the writer's clock.
// The joiner's FIFO baseline must be the survivor's clock component, or
// the survivor's next broadcast looks like a replay to the joiner.
TEST(ElasticView, JoinAfterDemandLockWriteKeepsSurvivorFifoBaseline) {
  Config cfg = elastic_cfg(3);
  cfg.initial_members = std::vector<ProcId>{0, 1};
  constexpr VarId kGuarded = 4, kAfter = 0, kJoined = 1;
  constexpr LockId kLock = 1;
  cfg.demand_association[kGuarded] = kLock;
  cfg.lock_policy_override[kLock] = LockPolicy::kDemand;
  MixedSystem sys(cfg);

  // Before the run: p0's write under the demand lock stays local.
  sys.node(0).wlock(kLock);
  sys.node(0).write_int(kGuarded, 44);
  sys.node(0).wunlock(kLock);

  const auto outcome = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 2) {
          n.join();
          n.write_int(kJoined, 1);
        } else if (p == 0) {
          n.await_int(kJoined, 1);  // p2 is in the view: broadcast to it
          n.write_int(kAfter, 7);
        }
        if (p != 0) n.await_int(kAfter, 7);
        n.barrier();
      },
      kDeadline);
  EXPECT_FALSE(outcome.stalled) << outcome.diagnostics.reason;
  EXPECT_EQ(sys.view().live_count(), 3u);
}

// Config validation: elastic demands vector-clock mode and a sane initial
// membership.
TEST(ElasticView, RunsWithSingleInitialMemberAndGrows) {
  Config cfg = elastic_cfg(2);
  cfg.initial_members = std::vector<ProcId>{0};
  MixedSystem sys(cfg);

  const auto outcome = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 1) {
          n.join();
          n.await_int(0, 5);
          n.write_int(1, 6);
        } else {
          n.write_int(0, 5);
          n.await_int(1, 6);
        }
        n.barrier();
      },
      kDeadline);
  EXPECT_FALSE(outcome.stalled) << outcome.diagnostics.reason;
  EXPECT_EQ(sys.view().live_count(), 2u);
}

}  // namespace
}  // namespace mc::dsm
