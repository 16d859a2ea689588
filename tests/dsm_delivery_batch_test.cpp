// Delivery batches: a node's delivery thread drains its mailbox in bulk and
// must still handle the drained messages in arrival order across kinds.
// The messages below are injected straight into one node's mailbox with a
// shared future deliver_at, so they become deliverable at the same instant
// and arrive as one drained batch.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "dsm/node.h"

namespace mc::dsm {
namespace {

constexpr net::Endpoint kTester = 0;  // plays process 0; no Node behind it
constexpr net::Endpoint kNode = 1;
constexpr net::Endpoint kLockMgr = 2;
constexpr net::Endpoint kBarrierMgr = 3;

net::Message from_tester(std::uint16_t kind) {
  net::Message m;
  m.src = kTester;
  m.dst = kNode;
  m.kind = kind;
  return m;
}

net::Message update(VarId x, Value v, std::uint64_t tick, bool elastic) {
  net::Message m = from_tester(kUpdate);
  m.a = x;
  m.b = v;
  m.c = tick;
  m.d = kFlagWrite;
  m.payload = {tick, 0};
  if (elastic) m.payload.push_back(0);  // writer's view epoch
  return m;
}

void push_as_one_batch(net::Fabric& f, std::vector<net::Message> msgs) {
  const auto due = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  for (net::Message& m : msgs) {
    m.deliver_at = due;
    ASSERT_TRUE(f.mailbox(kNode).push(std::move(m)));
  }
}

TEST(DeliveryBatch, UpdatesAndRequestsAreHandledInArrivalOrder) {
  net::Fabric f(4);
  Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 4;
  {
    Node node(cfg, kNode, f, kLockMgr, kBarrierMgr);
    net::Message fetch1 = from_tester(kFetchReq);
    fetch1.a = 0;
    fetch1.b = 1;
    net::Message sync = from_tester(kSyncReq);
    sync.a = 7;
    net::Message fetch2 = from_tester(kFetchReq);
    fetch2.a = 0;
    fetch2.b = 2;
    std::vector<net::Message> batch;
    batch.push_back(update(0, 10, 1, false));
    batch.push_back(std::move(fetch1));
    batch.push_back(update(0, 20, 2, false));
    batch.push_back(std::move(sync));
    batch.push_back(update(0, 30, 3, false));
    batch.push_back(std::move(fetch2));
    push_as_one_batch(f, std::move(batch));

    // Each reply reflects exactly the updates ahead of its request: the
    // batch's updates were not hoisted past the requests between them.
    const auto r1 = f.mailbox(kTester).recv();
    ASSERT_TRUE(r1.has_value());
    EXPECT_EQ(r1->kind, kFetchResp);
    EXPECT_EQ(r1->b, 1u);
    EXPECT_EQ(r1->c, 10u);
    const auto ack = f.mailbox(kTester).recv();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->kind, kSyncAck);
    EXPECT_EQ(ack->a, 7u);
    const auto r2 = f.mailbox(kTester).recv();
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->kind, kFetchResp);
    EXPECT_EQ(r2->b, 2u);
    EXPECT_EQ(r2->c, 30u);
    EXPECT_EQ(node.read(0, ReadMode::kCausal), 30u);
    f.shutdown();
  }
}

TEST(DeliveryBatch, ViewHelloBaselineLandsBeforeTheUpdatesBehindIt) {
  // An elastic joiner learns a survivor's FIFO baseline from kViewHello;
  // the survivor's next update (tick 6) is only in sequence after it.
  // Handling the update first would trip the per-sender FIFO check.
  net::Fabric f(4);
  Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 4;
  cfg.elastic = true;
  {
    Node node(cfg, kNode, f, kLockMgr, kBarrierMgr);
    net::Message hello = from_tester(kViewHello);
    hello.a = 5;
    hello.payload = {5, 0};
    std::vector<net::Message> batch;
    batch.push_back(std::move(hello));
    batch.push_back(update(1, 41, 6, true));
    batch.push_back(update(1, 42, 7, true));
    push_as_one_batch(f, std::move(batch));
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (node.read(1, ReadMode::kPram) != 42u &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(node.read(1, ReadMode::kCausal), 42u);
    f.shutdown();
  }
}

TEST(DeliveryBatch, ViewHelloReleasesUpdatesBufferedOnTheWaivedWrites) {
  // Process 0's update depends on process 2's first five writes, which
  // predate this node's admission: it waits in the causal buffer until
  // process 2's kViewHello waives them, and must apply right then — no
  // later message is coming to trigger another causal drain.
  net::Fabric f(5);
  Config cfg;
  cfg.num_procs = 3;
  cfg.num_vars = 4;
  cfg.elastic = true;
  {
    Node node(cfg, kNode, f, /*lock_mgr=*/3, /*barrier_mgr=*/4);
    net::Message dependent = update(2, 41, 1, true);
    dependent.payload = {1, 0, 5, 0};  // clock [1, 0, 5], epoch 0
    net::Message hello;
    hello.src = 2;
    hello.dst = kNode;
    hello.kind = kViewHello;
    hello.a = 5;
    hello.payload = {0, 0, 5};
    ASSERT_TRUE(f.mailbox(kNode).push(std::move(dependent)));
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    ASSERT_TRUE(f.mailbox(kNode).push(std::move(hello)));
    while (node.read(2, ReadMode::kPram) != 41u &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(node.read(2, ReadMode::kPram), 41u);
    f.shutdown();
  }
}

}  // namespace
}  // namespace mc::dsm
