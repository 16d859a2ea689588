// Direct protocol tests of the sync manager's lock side: episode
// numbering, FIFO fairness, reader batching, release-clock accumulation,
// and demand ownership digests — driven by raw fabric messages, no Node
// involved.

#include <gtest/gtest.h>

#include "dsm/sync_manager.h"

namespace mc::dsm {
namespace {

constexpr std::size_t kProcs = 4;
constexpr net::Endpoint kMgr = kProcs;

struct Harness {
  net::Fabric fabric{kProcs + 1};
  SyncManager mgr{fabric, kMgr, kProcs};

  ~Harness() { fabric.shutdown(); }

  void request(net::Endpoint who, LockId l, LockRequestKind kind) {
    net::Message m;
    m.src = who;
    m.dst = kMgr;
    m.kind = kLockReq;
    m.a = l;
    m.b = static_cast<std::uint64_t>(kind);
    fabric.send(std::move(m));
  }

  void unlock(net::Endpoint who, LockId l, LockRequestKind kind,
              std::vector<std::uint64_t> vc = std::vector<std::uint64_t>(kProcs, 0),
              std::vector<std::uint64_t> digest = {}) {
    net::Message m;
    m.src = who;
    m.dst = kMgr;
    m.kind = kUnlock;
    m.a = l;
    m.b = static_cast<std::uint64_t>(kind);
    m.d = digest.size();
    m.payload = std::move(vc);
    for (const auto v : digest) m.payload.push_back(v);
    fabric.send(std::move(m));
  }

  net::Message expect_grant(net::Endpoint who, LockId l) {
    const auto m = fabric.mailbox(who).recv();
    EXPECT_TRUE(m.has_value());
    EXPECT_EQ(m->kind, kLockGrant);
    EXPECT_EQ(m->a, l);
    return *m;
  }

  void expect_no_message(net::Endpoint who) {
    // Give the manager a moment to (incorrectly) grant.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(fabric.mailbox(who).try_recv().has_value());
  }
};

TEST(LockManagerProtocol, FirstWriterGetsEpisodeOne) {
  Harness h;
  h.request(0, 7, LockRequestKind::kWrite);
  const auto g = h.expect_grant(0, 7);
  EXPECT_EQ(g.b, 1u);                      // episode
  EXPECT_EQ(g.c, 0u);                      // no previous holders
  EXPECT_EQ(g.d, 0u);                      // no invalid vars
}

TEST(LockManagerProtocol, SecondWriterWaitsForUnlock) {
  Harness h;
  h.request(0, 0, LockRequestKind::kWrite);
  h.expect_grant(0, 0);
  h.request(1, 0, LockRequestKind::kWrite);
  h.expect_no_message(1);
  h.unlock(0, 0, LockRequestKind::kWrite);
  const auto g = h.expect_grant(1, 0);
  EXPECT_EQ(g.b, 2u);
  EXPECT_EQ(g.c, 1u << 0);  // previous episode's holder mask = {p0}
}

TEST(LockManagerProtocol, ReadersShareOneEpisode) {
  Harness h;
  h.request(0, 0, LockRequestKind::kRead);
  h.request(1, 0, LockRequestKind::kRead);
  h.request(2, 0, LockRequestKind::kRead);
  EXPECT_EQ(h.expect_grant(0, 0).b, 1u);
  EXPECT_EQ(h.expect_grant(1, 0).b, 1u);
  EXPECT_EQ(h.expect_grant(2, 0).b, 1u);
}

TEST(LockManagerProtocol, WriterBehindReadersBlocksLaterReaders) {
  Harness h;
  h.request(0, 0, LockRequestKind::kRead);
  h.expect_grant(0, 0);
  h.request(1, 0, LockRequestKind::kWrite);  // queued
  h.request(2, 0, LockRequestKind::kRead);   // behind the writer: FIFO
  h.expect_no_message(1);
  h.expect_no_message(2);
  h.unlock(0, 0, LockRequestKind::kRead);
  EXPECT_EQ(h.expect_grant(1, 0).b, 2u);  // the writer's own episode
  h.expect_no_message(2);
  h.unlock(1, 0, LockRequestKind::kWrite);
  EXPECT_EQ(h.expect_grant(2, 0).b, 3u);
}

TEST(LockManagerProtocol, ReleaseClocksAccumulateAcrossHolders) {
  Harness h;
  h.request(0, 0, LockRequestKind::kWrite);
  h.expect_grant(0, 0);
  h.unlock(0, 0, LockRequestKind::kWrite, {5, 0, 0, 0});
  h.request(1, 0, LockRequestKind::kWrite);
  const auto g1 = h.expect_grant(1, 0);
  EXPECT_EQ(g1.payload[0], 5u);
  h.unlock(1, 0, LockRequestKind::kWrite, {5, 3, 0, 0});
  h.request(2, 0, LockRequestKind::kWrite);
  const auto g2 = h.expect_grant(2, 0);
  EXPECT_EQ(g2.payload[0], 5u);
  EXPECT_EQ(g2.payload[1], 3u);
  EXPECT_EQ(g2.c, 1u << 1);  // direct predecessor is p1 only
}

TEST(LockManagerProtocol, DemandDigestTracksOwnership) {
  Harness h;
  h.request(0, 0, LockRequestKind::kWrite);
  h.expect_grant(0, 0);
  h.unlock(0, 0, LockRequestKind::kWrite, std::vector<std::uint64_t>(kProcs, 0),
           /*digest=*/{11, 12});  // p0 wrote vars 11 and 12
  h.request(1, 0, LockRequestKind::kWrite);
  const auto g = h.expect_grant(1, 0);
  ASSERT_EQ(g.d, 2u);
  // Payload: vc (kProcs words) then (var, owner) pairs.
  EXPECT_EQ(g.payload[kProcs + 0], 11u);
  EXPECT_EQ(g.payload[kProcs + 1], 0u);
  EXPECT_EQ(g.payload[kProcs + 2], 12u);
  EXPECT_EQ(g.payload[kProcs + 3], 0u);

  // p1 takes over var 11; var 12 stays owned by p0.  The next grant to p0
  // only lists var 11 — an acquirer never invalidates its own variables.
  h.unlock(1, 0, LockRequestKind::kWrite, std::vector<std::uint64_t>(kProcs, 0),
           /*digest=*/{11});
  h.request(0, 0, LockRequestKind::kWrite);
  const auto g2 = h.expect_grant(0, 0);
  ASSERT_EQ(g2.d, 1u);
  EXPECT_EQ(g2.payload[kProcs + 0], 11u);
  EXPECT_EQ(g2.payload[kProcs + 1], 1u);
}

TEST(LockManagerProtocol, OwnerFilteredFromItsOwnDigest) {
  Harness h;
  h.request(0, 0, LockRequestKind::kWrite);
  h.expect_grant(0, 0);
  h.unlock(0, 0, LockRequestKind::kWrite, std::vector<std::uint64_t>(kProcs, 0), {21});
  h.request(0, 0, LockRequestKind::kWrite);
  const auto g = h.expect_grant(0, 0);
  EXPECT_EQ(g.d, 0u);  // p0 owns var 21: nothing to invalidate
}

TEST(LockManagerProtocol, IndependentLocksDoNotInterfere) {
  Harness h;
  h.request(0, 1, LockRequestKind::kWrite);
  h.request(1, 2, LockRequestKind::kWrite);
  EXPECT_EQ(h.expect_grant(0, 1).b, 1u);
  EXPECT_EQ(h.expect_grant(1, 2).b, 1u);
}

}  // namespace
}  // namespace mc::dsm
