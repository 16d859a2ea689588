// Delivery batches: a node's delivery thread drains its mailbox in bulk and
// must still handle the drained messages in arrival order across kinds.
// The messages below are injected straight into one node's mailbox with a
// shared future deliver_at, so they become deliverable at the same instant
// and arrive as one drained batch.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "gtest_compat.h"

#include "dsm/batch.h"
#include "dsm/node.h"

namespace mc::dsm {
namespace {

constexpr net::Endpoint kTester = 0;  // plays process 0; no Node behind it
constexpr net::Endpoint kNode = 1;
constexpr net::Endpoint kMgr = 2;

net::Message from_tester(std::uint16_t kind) {
  net::Message m;
  m.src = kTester;
  m.dst = kNode;
  m.kind = kind;
  return m;
}

/// A frame from the tester, encoded by the update-frame codec.
net::Message frame(std::vector<BatchRecord> recs, std::size_t procs, bool count_mode = false) {
  net::Message m = encode_frame(recs, count_mode ? 0 : procs);
  m.src = kTester;
  m.dst = kNode;
  return m;
}

BatchRecord record(VarId x, Value v, SeqNo seq, VectorClock vc, std::uint64_t weight = 1) {
  BatchRecord r;
  r.var = x;
  r.value = v;
  r.seq = seq;
  r.weight = weight;
  r.vc = std::move(vc);
  return r;
}

/// The tester's tick-th write, unbatched: a one-record frame.
net::Message update(VarId x, Value v, std::uint64_t tick) {
  return frame({record(x, v, tick, VectorClock{tick, 0})}, 2);
}

/// A demand-lock fetch of x by the tester: a one-variable snapshot request.
net::Message demand_fetch(VarId x, std::uint64_t token) {
  net::Message m = from_tester(kFetchBulkReq);
  m.a = 1;
  m.b = token;
  m.d = kFetchDemand;
  m.payload = {x};
  return m;
}

/// A snapshot reply's token and its one record.
std::pair<std::uint64_t, BatchRecord> snapshot_reply(net::Message m, std::size_t procs) {
  const std::uint64_t token = m.payload.back();
  m.payload.pop_back();
  const std::vector<BatchRecord> recs = decode_frame(m, procs);
  EXPECT_EQ(recs.size(), 1u);
  return {token, recs.empty() ? BatchRecord{} : recs[0]};
}

void push_as_one_batch(net::Fabric& f, std::vector<net::Message> msgs) {
  const auto due = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  for (net::Message& m : msgs) {
    m.deliver_at = due;
    ASSERT_TRUE(f.mailbox(kNode).push(std::move(m)));
  }
}

TEST(DeliveryBatch, UpdatesAndRequestsAreHandledInArrivalOrder) {
  net::Fabric f(3);
  Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 4;
  {
    Node node(cfg, kNode, f, kMgr);
    net::Message sync = from_tester(kSyncReq);
    sync.a = 7;
    std::vector<net::Message> batch;
    batch.push_back(update(0, 10, 1));
    batch.push_back(demand_fetch(0, 1));
    batch.push_back(update(0, 20, 2));
    batch.push_back(std::move(sync));
    batch.push_back(update(0, 30, 3));
    batch.push_back(demand_fetch(0, 2));
    push_as_one_batch(f, std::move(batch));

    // Each reply reflects exactly the updates ahead of its request: the
    // batch's updates were not hoisted past the requests between them.
    const auto r1 = f.mailbox(kTester).recv();
    ASSERT_TRUE(r1.has_value());
    EXPECT_EQ(r1->kind, kFetchBulkResp);
    const auto [token1, rec1] = snapshot_reply(*r1, 2);
    EXPECT_EQ(token1, 1u);
    EXPECT_EQ(rec1.value, 10u);
    const auto ack = f.mailbox(kTester).recv();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->kind, kSyncAck);
    EXPECT_EQ(ack->a, 7u);
    const auto r2 = f.mailbox(kTester).recv();
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->kind, kFetchBulkResp);
    const auto [token2, rec2] = snapshot_reply(*r2, 2);
    EXPECT_EQ(token2, 2u);
    EXPECT_EQ(rec2.value, 30u);
    EXPECT_EQ(node.read(0, ReadMode::kCausal), 30u);
    f.shutdown();
  }
}

TEST(DeliveryBatch, ViewHelloBaselineLandsBeforeTheUpdatesBehindIt) {
  // An elastic joiner learns a survivor's FIFO baseline from kViewHello;
  // the survivor's next update (tick 6) is only in sequence after it.
  // Handling the update first would trip the per-sender FIFO check.
  net::Fabric f(3);
  Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 4;
  cfg.elastic = true;
  {
    Node node(cfg, kNode, f, kMgr);
    net::Message hello = from_tester(kViewHello);
    hello.a = 5;
    hello.payload = {5, 0};
    std::vector<net::Message> batch;
    batch.push_back(std::move(hello));
    batch.push_back(update(1, 41, 6));
    batch.push_back(update(1, 42, 7));
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
  net::Fabric f(4);
  Config cfg;
  cfg.num_procs = 3;
  cfg.num_vars = 4;
  cfg.elastic = true;
  {
    Node node(cfg, kNode, f, /*mgr=*/3);
    net::Message dependent = frame({record(2, 41, 1, VectorClock{1, 0, 5})}, 3);
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

// Per-sender FIFO on a full-replication channel: a frame must advance the
// sender by exactly its total record weight (coalesced records stand for
// several writes).  The sender's position is its clock component, or its
// write seq in count-vector mode.

/// One frame from the tester of (seq, weight) records; the last record
/// writes 7 * seq to variable 1.
net::Message weighted_frame(bool count_mode,
                            const std::vector<std::pair<SeqNo, std::uint64_t>>& recs) {
  std::vector<BatchRecord> out;
  for (const auto& [seq, weight] : recs) {
    out.push_back(record(0, seq, seq, count_mode ? VectorClock() : VectorClock{seq, 0}, weight));
  }
  out.back().var = 1;
  out.back().value = 7 * out.back().seq;
  return frame(std::move(out), 2, count_mode);
}

/// Deliver `frames` to a fresh node; true once variable 1 reads `want`.
bool delivers(bool count_mode, std::vector<net::Message> frames, Value want) {
  net::Fabric f(3);
  Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 4;
  if (count_mode) cfg.count_vectors.emplace();
  Node node(cfg, kNode, f, kMgr);
  for (net::Message& m : frames) {
    if (!f.mailbox(kNode).push(std::move(m))) return false;
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (node.read(1, ReadMode::kPram) != want &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const bool ok = node.read(1, ReadMode::kPram) == want;
  f.shutdown();
  return ok;
}

TEST(DeliveryBatch, FrameAdvancesTheSenderByItsTotalRecordWeight) {
  for (const bool count_mode : {false, true}) {
    // Writes 1-2 coalesced into one record, write 3, then write 4 alone.
    EXPECT_TRUE(delivers(count_mode,
                         {weighted_frame(count_mode, {{2, 2}, {3, 1}}),
                          weighted_frame(count_mode, {{4, 1}})},
                         7 * 4))
        << (count_mode ? "count mode" : "vector-clock mode");
  }
}

TEST(DeliveryBatchDeathTest, FrameGapOfOneAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  for (const bool count_mode : {false, true}) {
    // Weight 2 but position 3: the sender's first write never arrived.
    EXPECT_DEATH(
        std::ignore = delivers(count_mode, {weighted_frame(count_mode, {{3, 2}})}, 7 * 3),
        "per-sender FIFO violated");
    // A one-record frame skipping one write, as an unbatched stream would.
    EXPECT_DEATH(
        std::ignore = delivers(count_mode, {weighted_frame(count_mode, {{2, 1}})}, 7 * 2),
        "per-sender FIFO violated");
  }
}

}  // namespace
}  // namespace mc::dsm
