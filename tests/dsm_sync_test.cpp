// Synchronization behaviour of the runtime: read/write locks with all three
// propagation policies, barriers, and their consistency effects.

#include <gtest/gtest.h>

#include <atomic>

#include "dsm/system.h"
#include "history/checkers.h"
#include "history/program_analysis.h"

namespace mc::dsm {
namespace {

Config base(std::size_t procs, LockPolicy policy) {
  Config cfg;
  cfg.num_procs = procs;
  cfg.num_vars = 32;
  cfg.default_lock_policy = policy;
  cfg.record_trace = true;
  return cfg;
}

class LockPolicyTest : public ::testing::TestWithParam<LockPolicy> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, LockPolicyTest,
                         ::testing::Values(LockPolicy::kEager, LockPolicy::kLazy,
                                           LockPolicy::kDemand),
                         [](const auto& info) { return to_string(info.param); });

TEST_P(LockPolicyTest, WriteLockIsExclusive) {
  Config cfg = base(4, GetParam());
  if (GetParam() == LockPolicy::kDemand) cfg.demand_association[0] = 0;
  MixedSystem sys(cfg);
  std::atomic<int> inside{0};
  std::atomic<bool> violated{false};
  sys.run([&](Node& n, ProcId) {
    for (int i = 0; i < 25; ++i) {
      n.wlock(0);
      if (inside.fetch_add(1) != 0) violated = true;
      std::this_thread::yield();
      inside.fetch_sub(1);
      n.wunlock(0);
    }
  });
  EXPECT_FALSE(violated.load());
}

TEST_P(LockPolicyTest, CriticalSectionCounterIsLinear) {
  // The read-modify-write increment under a write lock must not lose
  // updates under any propagation policy.
  Config cfg = base(4, GetParam());
  if (GetParam() == LockPolicy::kDemand) cfg.demand_association[0] = 0;
  MixedSystem sys(cfg);
  constexpr int kPerProc = 20;
  sys.run([&](Node& n, ProcId) {
    for (int i = 0; i < kPerProc; ++i) {
      n.wlock(0);
      const std::int64_t v = n.read_int(0, ReadMode::kCausal);
      n.write_int(0, v + 1);
      n.wunlock(0);
    }
  });
  Node& n0 = sys.node(0);
  n0.wlock(0);
  EXPECT_EQ(n0.read_int(0, ReadMode::kCausal), 4 * kPerProc);
  n0.wunlock(0);
}

TEST_P(LockPolicyTest, PramReadSeesPreviousHolderUpdates) {
  // Definition 3: the |->lock edge to the previous holder is direct, so
  // even PRAM reads inside the critical section observe its updates.
  Config cfg = base(3, GetParam());
  if (GetParam() == LockPolicy::kDemand) cfg.demand_association[5] = 0;
  MixedSystem sys(cfg);
  sys.run([&](Node& n, ProcId) {
    for (int round = 0; round < 10; ++round) {
      n.wlock(0);
      const std::int64_t v = n.read_int(5, ReadMode::kPram);
      n.write_int(5, v + 1);
      n.wunlock(0);
    }
  });
  Node& n0 = sys.node(0);
  n0.wlock(0);
  EXPECT_EQ(n0.read_int(5, ReadMode::kPram), 30);
  n0.wunlock(0);
}

TEST_P(LockPolicyTest, TraceIsMixedConsistent) {
  Config cfg = base(3, GetParam());
  if (GetParam() == LockPolicy::kDemand) cfg.demand_association[0] = 0;
  MixedSystem sys(cfg);
  sys.run([&](Node& n, ProcId) {
    for (int i = 0; i < 5; ++i) {
      n.wlock(0);
      const std::int64_t v = n.read_int(0, ReadMode::kCausal);
      n.write_int(0, v + 1);
      n.wunlock(0);
    }
  });
  const auto res = history::check_mixed_consistency(sys.collect_history());
  EXPECT_TRUE(res.ok) << res.message();
}

TEST(DsmLocks, ReadLocksAdmitConcurrentReaders) {
  MixedSystem sys(base(4, LockPolicy::kLazy));
  std::atomic<int> readers{0};
  std::atomic<int> peak{0};
  sys.run([&](Node& n, ProcId) {
    for (int i = 0; i < 10; ++i) {
      n.rlock(0);
      const int now = readers.fetch_add(1) + 1;
      int old = peak.load();
      while (now > old && !peak.compare_exchange_weak(old, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      readers.fetch_sub(1);
      n.runlock(0);
    }
  });
  // Not guaranteed deterministically, but with 4 processes spinning for 10
  // rounds the read episodes overlap in practice.
  EXPECT_GE(peak.load(), 2);
}

TEST(DsmLocks, ReaderSeesPrecedingWriterUnderReadLock) {
  MixedSystem sys(base(2, LockPolicy::kLazy));
  sys.run([&](Node& n, ProcId p) {
    if (p == 0) {
      n.wlock(0);
      n.write_int(3, 77);
      n.wunlock(0);
      n.write(1, 1);  // side flag to order the test phases
    } else {
      n.await(1, 1);
      n.rlock(0);
      EXPECT_EQ(n.read_int(3, ReadMode::kCausal), 77);
      n.runlock(0);
    }
  });
  EXPECT_TRUE(history::check_mixed_consistency(sys.collect_history()).ok);
}

TEST(DsmLocks, EagerUnlockMakesUpdatesGloballyVisibleBeforeReturning) {
  MixedSystem sys(base(3, LockPolicy::kEager));
  std::atomic<bool> released{false};
  std::atomic<bool> ok{true};
  sys.run([&](Node& n, ProcId p) {
    if (p == 0) {
      n.wlock(0);
      n.write_int(4, 55);
      n.wunlock(0);  // blocks until all peers applied the update
      released = true;
    } else {
      while (!released.load()) std::this_thread::yield();
      // No DSM synchronization at all: eager propagation alone guarantees
      // the PRAM view already holds the update.
      if (n.read_int(4, ReadMode::kPram) != 55) ok = false;
    }
  });
  EXPECT_TRUE(ok.load());
}

TEST(DsmLocks, EagerUnlockCostsExtraMessages) {
  auto run_with = [](LockPolicy policy) {
    MixedSystem sys(base(3, policy));
    sys.run([&](Node& n, ProcId) {
      n.wlock(0);
      n.write_int(0, n.read_int(0, ReadMode::kCausal) + 1);
      n.wunlock(0);
    });
    return sys.metrics();
  };
  const auto eager = run_with(LockPolicy::kEager);
  const auto lazy = run_with(LockPolicy::kLazy);
  EXPECT_GT(eager.get("net.msg.sync_req"), 0u);
  EXPECT_EQ(lazy.get("net.msg.sync_req"), 0u);
  EXPECT_GT(eager.get("net.messages"), lazy.get("net.messages"));
}

TEST(DsmLocks, DemandPolicyAvoidsUpdateBroadcasts) {
  Config cfg = base(3, LockPolicy::kDemand);
  cfg.demand_association[0] = 0;
  MixedSystem sys(cfg);
  sys.run([&](Node& n, ProcId) {
    for (int i = 0; i < 5; ++i) {
      n.wlock(0);
      n.write_int(0, n.read_int(0, ReadMode::kCausal) + 1);
      n.wunlock(0);
    }
  });
  const auto snap = sys.metrics();
  EXPECT_EQ(snap.get("net.msg.update"), 0u);   // no broadcasts at all
  EXPECT_GT(snap.get("net.msg.fetch_bulk_req"), 0u);  // values migrate on demand
  Node& n0 = sys.node(0);
  n0.wlock(0);
  EXPECT_EQ(n0.read_int(0, ReadMode::kPram), 15);
  n0.wunlock(0);
}

TEST(DsmBarrier, MakesPreBarrierWritesVisibleToAll) {
  MixedSystem sys(base(4, LockPolicy::kLazy));
  sys.run([](Node& n, ProcId p) {
    n.write_int(p, 100 + p);
    n.barrier();
    for (ProcId q = 0; q < 4; ++q) {
      EXPECT_EQ(n.read_int(q, ReadMode::kPram), 100 + q);
    }
  });
  EXPECT_TRUE(history::check_mixed_consistency(sys.collect_history()).ok);
}

TEST(DsmBarrier, PhasesAlternateCorrectly) {
  // Two-phase ping-pong across 10 iterations (the Figure 2/4 skeleton):
  // everyone updates its own slot, barrier, everyone reads all slots.
  MixedSystem sys(base(3, LockPolicy::kLazy));
  sys.run([](Node& n, ProcId p) {
    for (int it = 0; it < 10; ++it) {
      n.write_int(p, it + 100);
      n.barrier();
      for (ProcId q = 0; q < 3; ++q) {
        EXPECT_EQ(n.read_int(q, ReadMode::kPram), it + 100);
      }
      n.barrier();
    }
  });
  EXPECT_TRUE(history::check_pram_consistent_phases(sys.collect_history()).ok);
}

TEST(DsmBarrier, MultipleBarrierObjectsAreIndependent) {
  MixedSystem sys(base(2, LockPolicy::kLazy));
  sys.run([](Node& n, ProcId) {
    n.barrier(0);
    n.barrier(1);
    n.barrier(0);
  });
  SUCCEED();
}

TEST(DsmBarrier, TraceRecordsEpochs) {
  MixedSystem sys(base(2, LockPolicy::kLazy));
  sys.run([](Node& n, ProcId) {
    n.barrier();
    n.barrier();
  });
  const auto h = sys.collect_history();
  int epoch0 = 0;
  int epoch1 = 0;
  for (const auto& op : h.ops()) {
    if (op.kind != history::OpKind::kBarrier) continue;
    if (op.barrier_epoch == 0) ++epoch0;
    if (op.barrier_epoch == 1) ++epoch1;
  }
  EXPECT_EQ(epoch0, 2);
  EXPECT_EQ(epoch1, 2);
}

}  // namespace
}  // namespace mc::dsm
