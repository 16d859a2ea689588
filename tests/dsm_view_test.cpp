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

#include "gtest_compat.h"

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "dsm/batch.h"
#include "dsm/node.h"
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

  // Shutdown drains every accepted message, so the donor's re-seed frame
  // has been applied before the counters are read.
  sys.shutdown();
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

// A joiner's donor snapshot ships a counter as a baseline: the joiner reads
// the exact pre-join sum, and a post-join delta lands on top of it.
TEST(ElasticView, JoinSnapshotCarriesCounterBaseline) {
  Config cfg = elastic_cfg(3);
  cfg.initial_members = std::vector<ProcId>{0, 1};
  MixedSystem sys(cfg);
  constexpr VarId kCounter = 5, kJoined = 6;

  // Before the join: both members' deltas applied at both members.
  sys.node(0).dec_int(kCounter, 3);
  sys.node(1).dec_int(kCounter, 4);
  sys.node(0).await_int(kCounter, -7);
  sys.node(1).await_int(kCounter, -7);

  const auto outcome = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 2) {
          n.join();
          EXPECT_EQ(n.read_int(kCounter, ReadMode::kPram), -7);
          n.write_int(kJoined, 1);
        } else if (p == 0) {
          n.await_int(kJoined, 1);
          // Our broadcast set holds the joiner once our commit has run.
          while (!n.view().is_alive(2)) std::this_thread::sleep_for(200us);
          n.dec_int(kCounter, 10);
        }
        n.await_int(kCounter, -17);
        n.barrier();
        EXPECT_EQ(n.read_int(kCounter, ReadMode::kPram), -17);
      },
      kDeadline);
  EXPECT_FALSE(outcome.stalled) << outcome.diagnostics.reason;
  EXPECT_EQ(sys.metrics().get("view.joins"), 1u);
}

// A donor with nothing to ship still sends the join snapshot, and join()
// recognises the empty frame.
TEST(ElasticView, JoinWithEmptyDonorSnapshotCompletes) {
  Config cfg = elastic_cfg(2);
  cfg.initial_members = std::vector<ProcId>{0};
  MixedSystem sys(cfg);

  const auto outcome = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 1) {
          n.join();
          n.write_int(0, 3);
        } else {
          n.await_int(0, 3);  // p1 joined: the manager knows it too
        }
        n.barrier();
        EXPECT_EQ(n.read_int(0, ReadMode::kPram), 3);
      },
      kDeadline);
  EXPECT_FALSE(outcome.stalled) << outcome.diagnostics.reason;

  const auto snap = sys.metrics();
  EXPECT_EQ(snap.get("view.joins"), 1u);
  EXPECT_EQ(snap.get("view.reseed_records_out"), 0u);
}

// A joiner's starting barrier instances ride its copy of the commit: no
// separate barrier-epoch sync is sent, and the joiner starts each barrier
// object at its next unreleased instance.  Each view change sends one
// commit per member of the old and new views, and none to anyone else.
TEST(ElasticView, JoinerBarrierEpochsRideItsCommit) {
  Config cfg = elastic_cfg(3);
  cfg.initial_members = std::vector<ProcId>{0, 1};
  MixedSystem sys(cfg);
  constexpr VarId kJoined = 0;

  // Phase 1, before the join: barrier 0 releases instances 0..2 and
  // barrier 1 instance 0; nothing is open afterwards.
  sys.run([](Node& n, ProcId p) {
    if (p == 2) return;
    for (int i = 0; i < 3; ++i) n.barrier(0);
    n.barrier(1);
  });
  std::atomic<std::uint64_t> joined_at_0{0}, joined_at_1{0};
  const auto outcome = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 2) {
          n.join();
          joined_at_0 = n.next_barrier_epoch(0);
          joined_at_1 = n.next_barrier_epoch(1);
          n.write_int(kJoined, 1);
        } else {
          n.await_int(kJoined, 1);
        }
        n.barrier(0);
        n.barrier(1);
      },
      kDeadline);
  EXPECT_FALSE(outcome.stalled) << outcome.diagnostics.reason;
  EXPECT_EQ(joined_at_0.load(), 3u);
  EXPECT_EQ(joined_at_1.load(), 1u);
  for (ProcId p = 0; p < 3; ++p) {
    EXPECT_EQ(sys.node(p).next_barrier_epoch(0), 4u) << "p" << p;
    EXPECT_EQ(sys.node(p).next_barrier_epoch(1), 2u) << "p" << p;
  }

  const auto snap = sys.metrics();
  EXPECT_EQ(snap.get("view.changes"), 1u);
  EXPECT_EQ(snap.values.count("net.msg.view_barrier_sync"), 0u);
  EXPECT_EQ(snap.get("net.msg.view_commit"), 3u);  // p0, p1 and the joiner
}

// ----------------------------------------------------------------------
// One node driven by hand: the test plays every other endpoint.
// ----------------------------------------------------------------------

constexpr net::Endpoint kMgrEp = 3;

/// Shuts the fabric down on every exit path, before the node's destructor
/// joins its delivery thread.
struct FabricShutdown {
  net::Fabric& fabric;
  ~FabricShutdown() { fabric.shutdown(); }
};

net::Message to_p0(std::uint16_t kind) {
  net::Message m;
  m.src = kMgrEp;
  m.dst = 0;
  m.kind = kind;
  return m;
}

/// The view manager's commit of `alive` under `epoch`; `reseeds` are
/// (departed, donor) pairs.
net::Message view_commit(std::uint64_t epoch, std::uint64_t alive,
                         std::vector<std::uint64_t> reseeds = {}) {
  net::Message m = to_p0(kViewCommit);
  m.a = epoch;
  m.b = alive;
  m.c = ~std::uint64_t{0};
  m.d = reseeds.size() / 2;
  m.payload = std::move(reseeds);
  return m;
}

// A re-seed ships the departed process's LWW writes as a snapshot frame and
// skips its counters.
TEST(ElasticView, ReseedSkipsCounters) {
  const Config cfg = elastic_cfg(3);
  net::Fabric f(4);
  Node p0(cfg, 0, f, kMgrEp);
  const FabricShutdown shutdown{f};
  constexpr VarId kWritten = 1, kCounter = 2;
  std::vector<BatchRecord> recs(2);
  recs[0].var = kWritten;
  recs[0].value = value_of(std::int64_t{8});
  recs[0].seq = 1;
  recs[0].vc = VectorClock{0, 0, 1};
  recs[1].var = kCounter;
  recs[1].value = value_of(std::int64_t{2});
  recs[1].flags = kFlagIntDelta;
  recs[1].seq = 2;
  recs[1].vc = VectorClock{0, 0, 2};
  net::Message from_p2 = encode_frame(recs, 3);
  from_p2.src = 2;
  from_p2.dst = 0;
  ASSERT_TRUE(f.mailbox(0).push(std::move(from_p2)));
  p0.await_int(kCounter, -2);

  // p2 departs; p0 re-seeds its writes to the survivor p1.
  ASSERT_TRUE(f.mailbox(0).push(view_commit(1, 0b011, {2, 0})));
  auto st = f.mailbox(1).recv();
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->kind, kViewState);
  EXPECT_EQ(st->b, kReseed);
  const std::vector<BatchRecord> shipped = decode_frame(*st, 3);
  ASSERT_EQ(shipped.size(), 1u);
  EXPECT_EQ(shipped[0].var, kWritten);
  EXPECT_EQ(int_of(shipped[0].value), 8);
  EXPECT_EQ(shipped[0].writer, 2u);
}

// A demand fetch keeps waiting while its owner is in the view, installs the
// owner's snapshot when it lands, and completes with no install when a view
// commit removes the owner: the reader falls back to its local copy.
TEST(ElasticView, DemandFetchFromDepartedOwnerFallsBackToLocalCopy) {
  Config cfg = elastic_cfg(3);
  constexpr VarId kVar = 2;
  constexpr LockId kLock = 1;
  cfg.demand_association[kVar] = kLock;
  cfg.lock_policy_override[kLock] = LockPolicy::kDemand;
  net::Fabric f(4);
  Node p0(cfg, 0, f, kMgrEp);
  const FabricShutdown shutdown{f};

  // Grant kLock, naming p1 as the last writer of kVar.
  std::uint64_t episode = 0;
  const auto lock_from_p1 = [&] {
    net::Message grant = to_p0(kLockGrant);
    grant.a = kLock;
    grant.b = ++episode;
    grant.c = 1;
    grant.d = 1;
    grant.payload = {0, 0, 0, kVar, 1};  // release clock, then (var, owner)
    ASSERT_TRUE(f.mailbox(0).push(std::move(grant)));
    p0.wlock(kLock);
  };
  const auto next_fetch = [&] {
    auto req = f.mailbox(1).recv();
    EXPECT_TRUE(req.has_value() && req->kind == kFetchBulkReq && req->d == kFetchDemand);
    return req.value_or(net::Message{});
  };

  // A commit that removes someone else leaves the fetch waiting; p1's
  // reply then installs.
  lock_from_p1();
  auto reader = std::async(std::launch::async, [&] { return p0.read_int(kVar, ReadMode::kPram); });
  const net::Message req = next_fetch();
  ASSERT_TRUE(f.mailbox(0).push(view_commit(1, 0b011)));
  while (p0.view().epoch < 1) std::this_thread::sleep_for(1ms);
  EXPECT_EQ(reader.wait_for(50ms), std::future_status::timeout);
  BatchRecord copy;
  copy.var = kVar;
  copy.value = value_of(std::int64_t{9});
  copy.seq = 4;
  copy.writer = 1;
  copy.vc = VectorClock(3);
  net::Message resp = encode_frame(std::span(&copy, 1), 3);
  resp.kind = kFetchBulkResp;
  resp.src = 1;
  resp.dst = 0;
  resp.payload.push_back(req.b);
  ASSERT_TRUE(f.mailbox(0).push(std::move(resp)));
  ASSERT_EQ(reader.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(reader.get(), 9);
  p0.wunlock(kLock);

  // p1 never answers the next fetch; the commit removing it completes it.
  lock_from_p1();
  reader = std::async(std::launch::async, [&] { return p0.read_int(kVar, ReadMode::kPram); });
  next_fetch();
  EXPECT_EQ(reader.wait_for(50ms), std::future_status::timeout);
  ASSERT_TRUE(f.mailbox(0).push(view_commit(2, 0b001)));
  ASSERT_EQ(reader.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(reader.get(), 9);
  p0.wunlock(kLock);
}

// A view 0 of one member: the other process joins before running.
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

// Config validation: elastic demands vector-clock mode, at most 64
// processes and a sane initial membership.  Each check fires before any
// node or thread is built.
TEST(ElasticViewDeathTest, RejectsCountVectors) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Config cfg = elastic_cfg(2);
  cfg.count_vectors.emplace();
  EXPECT_DEATH(MixedSystem{cfg}, "elastic membership requires vector-clock mode");
}

TEST(ElasticViewDeathTest, RejectsMoreThan64Processes) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(MixedSystem{elastic_cfg(65)}, "elastic membership encodes views as 64-bit masks");
}

TEST(ElasticViewDeathTest, RejectsInitialMembersWithoutElastic) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Config cfg = elastic_cfg(2);
  cfg.elastic = false;
  cfg.initial_members = std::vector<ProcId>{0};
  EXPECT_DEATH(MixedSystem{cfg}, "initial_members only means something");
}

TEST(ElasticViewDeathTest, RejectsEmptyInitialMembers) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Config cfg = elastic_cfg(2);
  cfg.initial_members = std::vector<ProcId>{};
  EXPECT_DEATH(MixedSystem{cfg}, "view 0 needs at least one member");
}

}  // namespace
}  // namespace mc::dsm
