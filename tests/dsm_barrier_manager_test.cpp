// Direct protocol tests of the sync manager's barrier side: arrival
// aggregation, released clock merging, epoch independence, and subset
// membership — driven by raw fabric messages.  The SyncManagerEndpoint
// cases check what sharing one endpoint with the lock and view traffic
// guarantees: one FIFO channel from the manager to each node.

#include <gtest/gtest.h>

#include "gtest_compat.h"

#include <optional>
#include <thread>

#include "dsm/sync_manager.h"

namespace mc::dsm {
namespace {

constexpr std::size_t kProcs = 3;
constexpr net::Endpoint kMgr = kProcs;

struct Harness {
  explicit Harness(std::map<BarrierId, std::vector<ProcId>> members = {},
                   std::optional<std::uint64_t> initial_alive = std::nullopt)
      : mgr(fabric, kMgr, kProcs, std::move(members), StampForm::kClock, initial_alive) {}
  ~Harness() { fabric.shutdown(); }

  net::Fabric fabric{kProcs + 1};
  SyncManager mgr;

  void send(net::Endpoint who, std::uint16_t kind, std::uint64_t a,
            std::uint64_t b = 0, std::vector<std::uint64_t> payload = {}) {
    net::Message m;
    m.src = who;
    m.dst = kMgr;
    m.kind = kind;
    m.a = a;
    m.b = b;
    m.payload = std::move(payload);
    fabric.send(std::move(m));
  }

  /// Block until the manager thread has dequeued `n` messages: senders'
  /// lanes are drained in no fixed order across senders, so a test that
  /// needs one sender's message handled first waits for it.
  void wait_handled(std::uint64_t n) {
    while (mgr.lock_heartbeats() + mgr.barrier_heartbeats() < n) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  std::uint16_t next_kind(net::Endpoint who) {
    const auto m = fabric.mailbox(who).recv();
    EXPECT_TRUE(m.has_value());
    return m.has_value() ? m->kind : 0;
  }

  void arrive(net::Endpoint who, BarrierId b, std::uint64_t epoch,
              std::vector<std::uint64_t> vc) {
    net::Message m;
    m.src = who;
    m.dst = kMgr;
    m.kind = kBarrierArrive;
    m.a = b;
    m.b = epoch;
    m.payload = std::move(vc);
    fabric.send(std::move(m));
  }

  net::Message expect_release(net::Endpoint who, BarrierId b, std::uint64_t epoch) {
    const auto m = fabric.mailbox(who).recv();
    EXPECT_TRUE(m.has_value());
    EXPECT_EQ(m->kind, kBarrierRelease);
    EXPECT_EQ(m->a, b);
    EXPECT_EQ(m->b, epoch);
    return *m;
  }

  void expect_silence(net::Endpoint who) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(fabric.mailbox(who).try_recv().has_value());
  }
};

TEST(BarrierManagerProtocol, WaitsForEveryProcess) {
  Harness h;
  h.arrive(0, 0, 0, {1, 0, 0});
  h.arrive(1, 0, 0, {0, 2, 0});
  h.expect_silence(0);
  h.arrive(2, 0, 0, {0, 0, 3});
  for (net::Endpoint e = 0; e < kProcs; ++e) h.expect_release(e, 0, 0);
}

TEST(BarrierManagerProtocol, ReleaseCarriesComponentwiseMax) {
  Harness h;
  h.arrive(0, 0, 0, {5, 1, 0});
  h.arrive(1, 0, 0, {2, 7, 0});
  h.arrive(2, 0, 0, {0, 0, 9});
  const auto rel = h.expect_release(0, 0, 0);
  EXPECT_EQ(rel.payload, (std::vector<std::uint64_t>{5, 7, 9}));
}

TEST(BarrierManagerProtocol, EpochsAreIndependent) {
  Harness h;
  // p0 races ahead to epoch 1 while others are still at epoch 0.
  h.arrive(0, 0, 0, {1, 0, 0});
  h.arrive(0, 0, 1, {2, 0, 0});
  h.arrive(1, 0, 0, {0, 1, 0});
  h.arrive(2, 0, 0, {0, 0, 1});
  h.expect_release(0, 0, 0);
  h.expect_silence(0);  // epoch 1 still incomplete
  h.arrive(1, 0, 1, {0, 2, 0});
  h.arrive(2, 0, 1, {0, 0, 2});
  h.expect_release(0, 0, 1);
}

TEST(BarrierManagerProtocol, DistinctBarrierObjectsAreIndependent) {
  Harness h;
  h.arrive(0, 0, 0, {0, 0, 0});
  h.arrive(0, 1, 0, {0, 0, 0});  // wait: same proc arrives at two objects
  h.arrive(1, 0, 0, {0, 0, 0});
  h.arrive(2, 0, 0, {0, 0, 0});
  h.expect_release(0, 0, 0);  // barrier object 0 completes alone
}

TEST(BarrierManagerProtocol, SubsetBarrierReleasesMembersOnly) {
  Harness h({{2, {0, 2}}});
  h.arrive(0, 2, 0, {1, 0, 0});
  h.arrive(2, 2, 0, {0, 0, 2});
  h.expect_release(0, 2, 0);
  h.expect_release(2, 2, 0);
  h.expect_silence(1);
}

TEST(BarrierManagerProtocol, DoubleArrivalDies) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Harness h;
        h.arrive(0, 0, 0, {0, 0, 0});
        h.arrive(0, 0, 0, {0, 0, 0});
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      },
      "double arrival");
}

// A lock grant and a barrier release bound for one node leave the one
// manager endpoint on one FIFO channel: the node sees them in the order the
// manager sent them, whichever comes first.
TEST(SyncManagerEndpoint, GrantAndReleaseToOneNodeArriveInSendOrder) {
  Harness h;
  const auto write = static_cast<std::uint64_t>(LockRequestKind::kWrite);
  const std::vector<std::uint64_t> zero(kProcs, 0);
  // Grant first: p2 holds lock 5 and p0 queues behind it; p0 and p1 wait
  // at barrier 0.  p2's unlock then its arrival (one sender, FIFO) make
  // the manager send p0 the grant, then the release.
  h.send(2, kLockReq, 5, write);
  EXPECT_EQ(h.next_kind(2), kLockGrant);
  h.send(0, kLockReq, 5, write);
  h.send(0, kBarrierArrive, 0, 0, zero);
  h.send(1, kBarrierArrive, 0, 0, zero);
  h.wait_handled(4);
  h.send(2, kUnlock, 5, write, zero);
  h.send(2, kBarrierArrive, 0, 0, zero);
  EXPECT_EQ(h.next_kind(0), kLockGrant);
  EXPECT_EQ(h.next_kind(0), kBarrierRelease);

  // Release first: the same with the trigger order reversed, on lock 6.
  h.send(2, kLockReq, 6, write);
  h.wait_handled(7);
  h.send(0, kLockReq, 6, write);
  h.send(0, kBarrierArrive, 0, 1, zero);
  h.send(1, kBarrierArrive, 0, 1, zero);
  h.wait_handled(10);
  h.send(2, kBarrierArrive, 0, 1, zero);
  h.send(2, kUnlock, 6, write, zero);
  EXPECT_EQ(h.next_kind(0), kBarrierRelease);
  EXPECT_EQ(h.next_kind(0), kLockGrant);
}

// A commit that waives a departed member's missing arrival releases the
// stranded instance after the kViewCommit, on the same channel: a survivor
// has fenced to the new view before it leaves the barrier.
TEST(SyncManagerEndpoint, StrandedReleaseFollowsTheCommit) {
  Harness h({}, full_mask(kProcs));
  h.send(0, kBarrierArrive, 0, 0, {1, 0, 0});
  h.send(1, kBarrierArrive, 0, 0, {0, 1, 0});
  h.wait_handled(2);
  h.send(0, kViewFault, 2);  // p2 never arrives: it is reported dead
  for (net::Endpoint p = 0; p < 2; ++p) {
    const auto propose = h.fabric.mailbox(p).recv();
    ASSERT_TRUE(propose.has_value());
    ASSERT_EQ(propose->kind, kViewPropose);
    EXPECT_EQ(propose->b, 0b011u);
    h.send(p, kViewAck, propose->a, 0, std::vector<std::uint64_t>(kProcs, 0));
  }
  for (net::Endpoint p = 0; p < 2; ++p) {
    EXPECT_EQ(h.next_kind(p), kViewCommit);
    EXPECT_EQ(h.next_kind(p), kBarrierRelease);
  }
  EXPECT_EQ(h.next_kind(2), kViewCommit);  // the departed hears its removal
  EXPECT_EQ(h.mgr.view().alive_mask, 0b011u);
}

}  // namespace
}  // namespace mc::dsm
