// Selective multicast (Section 6's access-pattern optimization) on top of
// the count-vector protocol: only subscribers receive a variable's
// updates, and barriers/locks/awaits still provide exactly the right
// visibility through per-receiver sent-count vectors.

#include <gtest/gtest.h>

#include "gtest_compat.h"

#include "dsm/system.h"
#include "history/checkers.h"

namespace mc::dsm {
namespace {

Config subs_cfg(std::size_t procs) {
  Config cfg;
  cfg.num_procs = procs;
  cfg.num_vars = 8;
  cfg.count_vectors.emplace();  // subscriber lists live in the count-vector config
  cfg.record_trace = true;
  return cfg;
}

TEST(Subscriptions, OnlySubscribersReceiveUpdates) {
  Config cfg = subs_cfg(3);
  cfg.count_vectors->subscribers[0] = {1};  // var 0: p1 only
  MixedSystem sys(cfg);
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      for (int i = 1; i <= 10; ++i) n.write(0, static_cast<Value>(i));
    }
    n.barrier();
    if (p == 1) {
      EXPECT_EQ(n.read(0, ReadMode::kPram), 10u);
    }
    if (p == 2) {
      EXPECT_EQ(n.read(0, ReadMode::kPram), 0u);  // never shipped
    }
  });
  // 10 updates to exactly one peer (instead of two).
  EXPECT_EQ(sys.metrics().get("net.msg.update"), 10u);
}

TEST(Subscriptions, BarrierCountsArePerReceiver) {
  // p0 floods p1 with subscribed updates; p2 receives none.  The barrier's
  // transposed count vectors stall p1 until all 50 arrive and p2 not at
  // all — both must see consistent post-barrier state for their own
  // subscriptions.
  Config cfg = subs_cfg(3);
  cfg.count_vectors->subscribers[0] = {1};
  cfg.count_vectors->subscribers[1] = {2};
  MixedSystem sys(cfg);
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      for (int i = 1; i <= 50; ++i) n.write(0, static_cast<Value>(i));
      n.write(1, 777);
    }
    n.barrier();
    if (p == 1) {
      EXPECT_EQ(n.read(0, ReadMode::kPram), 50u);
    }
    if (p == 2) {
      EXPECT_EQ(n.read(1, ReadMode::kPram), 777u);
    }
  });
}

TEST(Subscriptions, AwaitWorksOnSubscribedVariable) {
  Config cfg = subs_cfg(2);
  cfg.count_vectors->subscribers[3] = {1};
  MixedSystem sys(cfg);
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write(2, 5);  // unsubscribed variable: broadcast normally
      n.write(3, 9);
    } else {
      n.await(3, 9);
      // The await's count floor covers p0's earlier traffic to us.
      EXPECT_EQ(n.read(2, ReadMode::kPram), 5u);
    }
  });
}

TEST(Subscriptions, LazyLocksShipPerReceiverCounts) {
  // Producer/consumer handoff guarded by a lock: the value travels only to
  // its subscriber, and the grant's per-receiver count vector guarantees
  // that once p1 acquires the lock *after* p0's unlock, the subscribed
  // update has been applied.  (Note the contract: every reader of a
  // subscribed variable must be in its subscriber list.)
  Config cfg = subs_cfg(2);
  cfg.count_vectors->subscribers[5] = {1};
  MixedSystem sys(cfg);
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.wlock(0);
      n.write(5, 99);
      n.wunlock(0);
    } else {
      for (;;) {
        n.wlock(0);
        const Value v = n.read(5, ReadMode::kPram);
        n.wunlock(0);
        if (v == 99) break;  // acquired after p0's unlock: must be visible
        std::this_thread::yield();
      }
    }
  });
  EXPECT_EQ(sys.metrics().get("net.msg.update"), 1u);  // p1 only
}

TEST(Subscriptions, SubscriberTraceIsMixedConsistent) {
  Config cfg = subs_cfg(3);
  cfg.count_vectors->subscribers[0] = {1};
  MixedSystem sys(cfg);
  sys.run([](Node& n, ProcId p) {
    if (p == 0) n.write(0, 42);
    n.write_int(1 + p, 100 + p);  // broadcast vars
    n.barrier();
    if (p == 1) {
      EXPECT_EQ(n.read(0, ReadMode::kPram), 42u);
    }
    for (ProcId q = 0; q < 3; ++q) {
      EXPECT_EQ(n.read_int(1 + q, ReadMode::kPram), 100 + q);
    }
  });
  // Only subscribers touched var 0, so the recorded history must check.
  const auto res = history::check_mixed_consistency(sys.collect_history());
  EXPECT_TRUE(res.ok) << res.message();
}

TEST(Subscriptions, SavesMessagesVersusBroadcast) {
  auto traffic = [](bool subscribe) {
    Config cfg = subs_cfg(4);
    if (subscribe) cfg.count_vectors->subscribers[0] = {1};
    MixedSystem sys(cfg);
    sys.run([](Node& n, ProcId p) {
      if (p == 0) {
        for (int i = 1; i <= 20; ++i) n.write(0, static_cast<Value>(i));
      }
      n.barrier();
      if (p == 1) {
        EXPECT_EQ(n.read(0, ReadMode::kPram), 20u);
      }
    });
    return sys.metrics().get("net.msg.update");
  };
  EXPECT_EQ(traffic(false), 60u);  // 20 updates x 3 peers
  EXPECT_EQ(traffic(true), 20u);   // 20 updates x 1 subscriber
}

TEST(Subscriptions, OutOfRangeVariableIsRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Config cfg = subs_cfg(2);
  cfg.count_vectors->subscribers[8] = {1};  // num_vars is 8
  EXPECT_DEATH(MixedSystem{cfg}, "subscriber list for an out-of-range variable");
}

TEST(Subscriptions, OutOfRangeProcessIsRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Config cfg = subs_cfg(2);
  cfg.count_vectors->subscribers[0] = {2};  // num_procs is 2
  EXPECT_DEATH(MixedSystem{cfg}, "subscriber list names an out-of-range process");
}

}  // namespace
}  // namespace mc::dsm
