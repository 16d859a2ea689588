#include "net/reliable.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "net/fabric.h"
#include "net/fault.h"

namespace mc::net {
namespace {

Message make(Endpoint src, Endpoint dst, std::uint16_t kind, std::uint64_t a = 0) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.kind = kind;
  m.a = a;
  return m;
}

ReliabilityConfig fast_cfg() {
  ReliabilityConfig cfg;
  cfg.initial_rto = std::chrono::milliseconds(1);
  cfg.max_rto = std::chrono::milliseconds(20);
  cfg.max_retries = 30;
  return cfg;
}

TEST(ReliableChannel, RestoresCompleteFifoStreamUnderDrops) {
  constexpr std::uint64_t kTotal = 300;
  Fabric f(2);
  f.enable_reliability(fast_cfg());
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_prob = 0.3;
  f.inject_faults(plan);

  std::vector<std::uint64_t> got;
  std::thread receiver([&] {
    while (got.size() < kTotal) {
      const auto m = f.recv(1);
      if (!m.has_value()) break;
      got.push_back(m->a);
    }
  });
  // The sender endpoint needs a consumer too: acks for 0's messages arrive
  // in 0's mailbox, and 0's retransmit deadlines come due there; both are
  // only processed inside recv(0).
  std::thread ack_drain([&] {
    while (f.recv(0).has_value()) {
    }
  });
  for (std::uint64_t i = 0; i < kTotal; ++i) f.send(make(0, 1, 1, i));
  receiver.join();
  f.shutdown();
  ack_drain.join();

  ASSERT_EQ(got.size(), kTotal);
  for (std::uint64_t i = 0; i < kTotal; ++i) EXPECT_EQ(got[i], i);
  ReliableChannel* rel = f.reliable_channel();
  ASSERT_NE(rel, nullptr);
  EXPECT_GT(rel->retransmits(), 0u);
  EXPECT_TRUE(rel->errors().empty());
  const auto snap = f.metrics();
  EXPECT_GT(snap.get("net.retransmits"), 0u);
  EXPECT_GT(snap.get("net.rto_ns.count"), 0u);
}

TEST(ReliableChannel, DedupsDuplicateDeliveries) {
  constexpr std::uint64_t kTotal = 100;
  Fabric f(2);
  f.enable_reliability(fast_cfg());
  FaultPlan plan;
  plan.seed = 3;
  plan.dup_prob = 1.0;
  f.inject_faults(plan);

  std::vector<std::uint64_t> got;
  std::thread receiver([&] {
    while (got.size() < kTotal) {
      const auto m = f.recv(1);
      if (!m.has_value()) break;
      got.push_back(m->a);
    }
  });
  std::thread ack_drain([&] {
    while (f.recv(0).has_value()) {
    }
  });
  for (std::uint64_t i = 0; i < kTotal; ++i) f.send(make(0, 1, 1, i));
  receiver.join();
  f.shutdown();
  ack_drain.join();

  ASSERT_EQ(got.size(), kTotal);
  for (std::uint64_t i = 0; i < kTotal; ++i) EXPECT_EQ(got[i], i);
  // The duplicate of the final message may still sit in the mailbox when
  // the receiver exits, hence the -1.
  EXPECT_GE(f.reliable_channel()->dup_dropped(), kTotal - 1);
}

TEST(ReliableChannel, SurfacesPeerUnreachableInsteadOfRetryingForever) {
  Fabric f(2);
  ReliabilityConfig cfg;
  cfg.initial_rto = std::chrono::microseconds(200);
  cfg.max_rto = std::chrono::milliseconds(1);
  cfg.max_retries = 3;
  f.enable_reliability(cfg);
  FaultPlan plan;
  plan.channel_drop_prob[{0, 1}] = 1.0;  // the forward channel is severed
  f.inject_faults(plan);
  // Retransmits and the give-up verdict fire on the sender's consumer.
  std::thread ack_drain([&] {
    while (f.recv(0).has_value()) {
    }
  });

  f.send(make(0, 1, 1, 1));
  ReliableChannel* rel = f.reliable_channel();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rel->errors().empty() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  f.shutdown();
  ack_drain.join();
  const auto errs = rel->errors();
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_EQ(errs[0].src, 0u);
  EXPECT_EQ(errs[0].dst, 1u);
  EXPECT_EQ(errs[0].first_unacked, 1u);
  EXPECT_EQ(errs[0].retries, cfg.max_retries);
  EXPECT_EQ(f.metrics().get("net.peer_unreachable"), 1u);
}

TEST(ReliableChannel, AcksWaitingInTheSendersMailboxCancelItsTimeouts) {
  // Deadlines fire on the sender's own consumer, after the rest of the
  // batch they arrive with.  A sender that does not drain for five times
  // its whole retry budget still finds the peer's ack ahead of its
  // timeouts: it neither retransmits nor declares the peer unreachable.
  Fabric f(2);
  ReliabilityConfig cfg;
  cfg.initial_rto = std::chrono::milliseconds(1);
  cfg.max_rto = std::chrono::milliseconds(10);
  cfg.max_retries = 3;
  f.enable_reliability(cfg);
  ReliableChannel* rel = f.reliable_channel();

  std::thread receiver([&] {
    while (f.recv(1).has_value()) {
    }
  });
  f.send(make(0, 1, 1, 5));
  std::this_thread::sleep_for(5 * cfg.max_retries * cfg.max_rto);
  // The receiver's flush deadline ships the ack into 0's mailbox.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rel->acks_sent() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(rel->acks_sent(), 1u);
  // Something for recv(0) to return: the drain that hands it up also
  // handles the ack and every timeout waiting in 0's mailbox.
  f.send(make(1, 0, 2, 6));
  const auto m = f.recv(0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->a, 6u);
  EXPECT_GE(rel->timer_wakeups(), 2u);  // 0's RTO and 1's ack flush
  EXPECT_EQ(rel->retransmits(), 0u);
  EXPECT_TRUE(rel->errors().empty());
  f.shutdown();
  receiver.join();
}

TEST(ReliableChannel, CleanFabricCostsAcksButNoRetransmits) {
  constexpr std::uint64_t kTotal = 200;
  Fabric f(2);
  ReliabilityConfig cfg;
  cfg.initial_rto = std::chrono::milliseconds(500);  // no spurious timeouts
  f.enable_reliability(cfg);

  std::vector<std::uint64_t> got;
  std::thread receiver([&] {
    while (got.size() < kTotal) {
      const auto m = f.recv(1);
      if (!m.has_value()) break;
      got.push_back(m->a);
    }
  });
  std::thread ack_drain([&] {
    while (f.recv(0).has_value()) {
    }
  });
  for (std::uint64_t i = 0; i < kTotal; ++i) f.send(make(0, 1, 1, i));
  receiver.join();
  f.shutdown();
  ack_drain.join();

  ASSERT_EQ(got.size(), kTotal);
  ReliableChannel* rel = f.reliable_channel();
  EXPECT_EQ(rel->retransmits(), 0u);
  EXPECT_GT(rel->acks_sent(), 0u);
  EXPECT_GT(rel->ack_bytes(), 0u);
  EXPECT_EQ(rel->dup_dropped(), 0u);
}

TEST(ReliableChannel, DelayedAcksSuppressStandaloneAckTraffic) {
  // ack_every = 8 on a clean fabric: only every eighth delivery emits a
  // standalone ack, the rest are recorded as suppressed.  This is the C12
  // fix for C11's "reliability doubles the message count" observation.
  constexpr std::uint64_t kTotal = 200;
  Fabric f(2);
  ReliabilityConfig cfg;
  cfg.initial_rto = std::chrono::milliseconds(500);  // no spurious timeouts
  cfg.ack_every = 8;
  f.enable_reliability(cfg);

  std::vector<std::uint64_t> got;
  std::thread receiver([&] {
    while (got.size() < kTotal) {
      const auto m = f.recv(1);
      if (!m.has_value()) break;
      got.push_back(m->a);
    }
  });
  std::thread ack_drain([&] {
    while (f.recv(0).has_value()) {
    }
  });
  for (std::uint64_t i = 0; i < kTotal; ++i) f.send(make(0, 1, 1, i));
  receiver.join();
  f.shutdown();
  ack_drain.join();

  ASSERT_EQ(got.size(), kTotal);
  for (std::uint64_t i = 0; i < kTotal; ++i) EXPECT_EQ(got[i], i);
  ReliableChannel* rel = f.reliable_channel();
  EXPECT_EQ(rel->retransmits(), 0u);
  EXPECT_GT(rel->acks_delayed(), 0u);
  // ~kTotal/8 stride acks plus at most a trailing flush ack, against
  // kTotal standalone acks at ack_every = 1.
  EXPECT_LE(rel->acks_sent(), kTotal / 4);
  EXPECT_GT(f.metrics().get("net.ack.delayed"), 0u);
}

TEST(ReliableChannel, AckFlushWindowAcksShortStreamsBeforeRtoFires) {
  // Fewer messages than the ack stride: only the flush deadline can ack them.
  // It must do so well inside the (huge) retransmit timeout, otherwise the
  // sender would spuriously back off — why the flush window is derived
  // from initial_rto.
  Fabric f(2);
  ReliabilityConfig cfg;
  cfg.initial_rto = std::chrono::milliseconds(500);
  cfg.ack_every = 64;
  f.enable_reliability(cfg);

  std::vector<std::uint64_t> got;
  std::thread receiver([&] {
    // Drains past the stream: 1's ack flush deadline fires in recv(1).
    while (const auto m = f.recv(1)) got.push_back(m->a);
  });
  std::thread ack_drain([&] {
    while (f.recv(0).has_value()) {
    }
  });
  for (std::uint64_t i = 0; i < 3; ++i) f.send(make(0, 1, 1, i));

  ReliableChannel* rel = f.reliable_channel();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rel->acks_sent() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  f.shutdown();
  receiver.join();
  ack_drain.join();

  ASSERT_EQ(got.size(), 3u);
  EXPECT_GE(rel->acks_sent(), 1u);   // the flush deadline fired
  EXPECT_EQ(rel->retransmits(), 0u); // ...before the sender's RTO did
  EXPECT_GT(rel->acks_delayed(), 0u);
}

TEST(ReliableChannel, DelayedAcksStillRepairDropsViaRetransmit) {
  // Lossy fabric with stride acking: cumulative acks mean a lost stride
  // ack is subsumed by the next one (or by the flush deadline), and dropped
  // data still triggers retransmission — the stream stays complete FIFO.
  constexpr std::uint64_t kTotal = 300;
  Fabric f(2);
  ReliabilityConfig cfg = fast_cfg();
  cfg.ack_every = 4;
  f.enable_reliability(cfg);
  FaultPlan plan;
  plan.seed = 23;
  plan.drop_prob = 0.3;
  f.inject_faults(plan);

  std::vector<std::uint64_t> got;
  std::thread receiver([&] {
    while (got.size() < kTotal) {
      const auto m = f.recv(1);
      if (!m.has_value()) break;
      got.push_back(m->a);
    }
  });
  std::thread ack_drain([&] {
    while (f.recv(0).has_value()) {
    }
  });
  for (std::uint64_t i = 0; i < kTotal; ++i) f.send(make(0, 1, 1, i));
  receiver.join();
  f.shutdown();
  ack_drain.join();

  ASSERT_EQ(got.size(), kTotal);
  for (std::uint64_t i = 0; i < kTotal; ++i) EXPECT_EQ(got[i], i);
  ReliableChannel* rel = f.reliable_channel();
  EXPECT_GT(rel->retransmits(), 0u);
  EXPECT_GT(rel->acks_delayed(), 0u);
  EXPECT_TRUE(rel->errors().empty());
}

TEST(ReliableChannel, DefaultStrideSendsAtMostOneAckPerFourDeliveries) {
  // Delayed acks are the default: a one-way stream on a clean fabric costs
  // at most one standalone ack per four deliveries.  Only initial_rto is
  // raised (and with it the derived flush window), so a slow host cannot
  // turn spurious retransmits or early flushes into extra acks.
  constexpr std::uint64_t kTotal = 200;
  Fabric f(2);
  ReliabilityConfig cfg;
  cfg.initial_rto = std::chrono::milliseconds(500);
  EXPECT_GT(cfg.ack_every, 1u);
  f.enable_reliability(cfg);

  std::vector<std::uint64_t> got;
  std::thread receiver([&] {
    while (got.size() < kTotal) {
      const auto m = f.recv(1);
      if (!m.has_value()) break;
      got.push_back(m->a);
    }
  });
  std::thread ack_drain([&] {
    while (f.recv(0).has_value()) {
    }
  });
  for (std::uint64_t i = 0; i < kTotal; ++i) f.send(make(0, 1, 1, i));
  receiver.join();
  f.shutdown();
  ack_drain.join();

  ASSERT_EQ(got.size(), kTotal);
  ReliableChannel* rel = f.reliable_channel();
  EXPECT_EQ(rel->retransmits(), 0u);
  EXPECT_LE(rel->acks_sent(), kTotal / 4);
  EXPECT_GT(rel->acks_delayed(), 0u);
}

TEST(ReliableChannel, PingPongAcksRideReverseTraffic) {
  // Every request is answered before the next one goes out, so each owed
  // ack leaves on the reply (and each reply's ack on the next request)
  // instead of as a standalone message.  The 500 ms flush window keeps the
  // flush deadline from beating a reply on a slow host.
  constexpr std::uint64_t kRounds = 50;
  Fabric f(2);
  ReliabilityConfig cfg;
  cfg.initial_rto = std::chrono::seconds(2);
  f.enable_reliability(cfg);

  std::thread responder([&] {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      const auto m = f.recv(1);
      if (!m.has_value()) return;
      f.send(make(1, 0, 2, m->a));
    }
  });
  std::vector<std::uint64_t> replies;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    f.send(make(0, 1, 1, r));
    const auto m = f.recv(0);
    ASSERT_TRUE(m.has_value());
    replies.push_back(m->a);
  }
  responder.join();
  f.shutdown();

  ASSERT_EQ(replies.size(), kRounds);
  for (std::uint64_t r = 0; r < kRounds; ++r) EXPECT_EQ(replies[r], r);
  ReliableChannel* rel = f.reliable_channel();
  EXPECT_GE(rel->acks_piggybacked(), kRounds - 1);
  EXPECT_EQ(f.metrics().get("net.ack.piggybacked"), rel->acks_piggybacked());
  EXPECT_EQ(rel->retransmits(), 0u);
}

TEST(ReliableChannel, LowRtoWithDefaultStrideFlushesAtThirdOfRto) {
  // The flush window is derived from the RTO, so a low-RTO config keeps
  // delayed acks (no separate flush knob can overtake the timeout).
  Fabric f(2);
  ReliabilityConfig cfg;
  cfg.initial_rto = std::chrono::microseconds(200);
  f.enable_reliability(cfg);
  EXPECT_EQ(ReliableChannel::ack_flush_window(cfg), cfg.initial_rto / 3);

  std::vector<std::uint64_t> got;
  std::thread receiver([&] {
    // Drains past the stream: 1's ack flush deadline fires in recv(1).
    while (const auto m = f.recv(1)) got.push_back(m->a);
  });
  std::thread ack_drain([&] {
    while (f.recv(0).has_value()) {
    }
  });
  ReliableChannel* rel = f.reliable_channel();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < 3; ++i) f.send(make(0, 1, 1, i));
  // Fewer deliveries than the stride: only the flush (or, on a host too
  // slow for a 200 us RTO, a re-ack of a retransmitted copy) acks them,
  // and neither can go out before the window has passed.
  const auto deadline = t0 + std::chrono::seconds(5);
  while (rel->acks_sent() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const auto acked_after = std::chrono::steady_clock::now() - t0;
  f.shutdown();
  receiver.join();
  ack_drain.join();

  ASSERT_EQ(got.size(), 3u);
  EXPECT_GE(rel->acks_sent(), 1u);
  EXPECT_GE(acked_after, ReliableChannel::ack_flush_window(cfg));
  EXPECT_GT(rel->acks_delayed(), 0u);
  EXPECT_TRUE(rel->errors().empty());
}

TEST(ReliableChannel, TimerSleepsWhileNoDeadlineIsArmed) {
  // A deadline is a message posted only when armed, never a poll: with
  // keepalive off and nothing in flight or owed, none is handled at all.
  Fabric f(2);
  ReliabilityConfig cfg;
  ASSERT_EQ(cfg.keepalive.count(), 0);
  f.enable_reliability(cfg);
  ReliableChannel* rel = f.reliable_channel();

  const std::uint64_t idle = rel->timer_wakeups();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(rel->timer_wakeups(), idle);

  // After a short stream is delivered and acked, no further deadline is
  // posted.
  std::vector<std::uint64_t> got;
  std::thread receiver([&] {
    // Drains past the stream: 1's ack flush deadline fires in recv(1).
    while (const auto m = f.recv(1)) got.push_back(m->a);
  });
  std::thread ack_drain([&] {
    while (f.recv(0).has_value()) {
    }
  });
  for (std::uint64_t i = 0; i < 3; ++i) f.send(make(0, 1, 1, i));
  bool quiet = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!quiet && std::chrono::steady_clock::now() < deadline) {
    const std::uint64_t before = rel->timer_wakeups();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    quiet = rel->acks_sent() > 0 && rel->timer_wakeups() == before;
  }
  f.shutdown();
  receiver.join();
  ack_drain.join();

  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(quiet);
  EXPECT_GT(rel->timer_wakeups(), idle);  // the flush deadline came due
  EXPECT_EQ(f.metrics().get("net.rel_timer.wakeups"), rel->timer_wakeups());
}

TEST(ReliableChannel, MessagesOutsideTheProtocolPassThrough) {
  // rel_seq == 0 marks a message outside the protocol (e.g. sent before
  // reliability was enabled, or via send_raw with no wrap): it must still
  // be handed up, unsequenced.
  Fabric f(2);
  f.enable_reliability(fast_cfg());
  f.send_raw(make(0, 1, 1, 77));
  const auto m = f.recv(1);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->a, 77u);
  EXPECT_EQ(m->rel_seq, 0u);
  f.shutdown();
}

TEST(ReliableChannel, BackoffDoublesAndCapsAtMaxRto) {
  ReliabilityConfig cfg;
  cfg.initial_rto = std::chrono::milliseconds(2);
  cfg.max_rto = std::chrono::milliseconds(20);
  cfg.jitter = 0.0;
  auto rto = cfg.initial_rto;
  rto = ReliableChannel::backoff_rto(rto, cfg, 0, 1, 1);
  EXPECT_EQ(rto, std::chrono::milliseconds(4));
  rto = ReliableChannel::backoff_rto(rto, cfg, 0, 1, 2);
  EXPECT_EQ(rto, std::chrono::milliseconds(8));
  rto = ReliableChannel::backoff_rto(rto, cfg, 0, 1, 3);
  EXPECT_EQ(rto, std::chrono::milliseconds(16));
  // Ceiling: doubling saturates at max_rto and stays there.
  rto = ReliableChannel::backoff_rto(rto, cfg, 0, 1, 4);
  EXPECT_EQ(rto, cfg.max_rto);
  rto = ReliableChannel::backoff_rto(rto, cfg, 0, 1, 5);
  EXPECT_EQ(rto, cfg.max_rto);
}

TEST(ReliableChannel, BackoffJitterIsDeterministicBoundedAndDesynchronizing) {
  ReliabilityConfig cfg;
  cfg.initial_rto = std::chrono::milliseconds(2);
  cfg.max_rto = std::chrono::milliseconds(200);
  cfg.jitter = 0.25;
  cfg.jitter_seed = 42;
  const auto prev = std::chrono::milliseconds(8);

  // Deterministic: same (seed, channel, seq, attempt) -> same step.
  const auto a = ReliableChannel::backoff_rto(prev, cfg, 3, 17, 2);
  const auto b = ReliableChannel::backoff_rto(prev, cfg, 3, 17, 2);
  EXPECT_EQ(a, b);

  // Bounded: every step lands in [(1-j)*2*prev, (1+j)*2*prev] and never
  // exceeds max_rto — the give-up verdict stays within
  // max_retries * max_rto even with jitter on.
  const double lo = 16e6 * (1.0 - cfg.jitter);
  const double hi = 16e6 * (1.0 + cfg.jitter);
  bool varied = false;
  for (std::uint64_t ch = 0; ch < 32; ++ch) {
    const auto step = ReliableChannel::backoff_rto(prev, cfg, ch, 17, 2);
    EXPECT_GE(static_cast<double>(step.count()), lo);
    EXPECT_LE(static_cast<double>(step.count()), hi);
    EXPECT_LE(step, cfg.max_rto);
    if (step != a) varied = true;
  }
  // De-synchronizing: distinct channels against one dead peer must not all
  // share a retransmit schedule.
  EXPECT_TRUE(varied);

  // Jitter never breaks the cap.
  cfg.max_rto = std::chrono::milliseconds(10);
  for (int attempt = 1; attempt < 8; ++attempt) {
    EXPECT_LE(ReliableChannel::backoff_rto(std::chrono::milliseconds(9), cfg, 1,
                                           1, attempt),
              cfg.max_rto);
  }

  // A different seed reshuffles the schedule.
  ReliabilityConfig other = cfg;
  other.max_rto = std::chrono::milliseconds(200);
  other.jitter_seed = 43;
  cfg.max_rto = std::chrono::milliseconds(200);
  bool seed_differs = false;
  for (std::uint64_t seq = 1; seq <= 16 && !seed_differs; ++seq) {
    seed_differs = ReliableChannel::backoff_rto(prev, cfg, 3, seq, 2) !=
                   ReliableChannel::backoff_rto(prev, other, 3, seq, 2);
  }
  EXPECT_TRUE(seed_differs);
}

TEST(ReliableChannel, UnreachableCallbackFiresAndMarkDeadSilencesChannel) {
  Fabric f(2);
  ReliabilityConfig cfg;
  cfg.initial_rto = std::chrono::microseconds(200);
  cfg.max_rto = std::chrono::milliseconds(1);
  cfg.max_retries = 3;
  cfg.jitter = 0.5;
  cfg.jitter_seed = 7;
  f.enable_reliability(cfg);
  ReliableChannel* rel = f.reliable_channel();

  std::atomic<int> fired{0};
  ReliableChannel::PeerUnreachable seen;
  std::mutex seen_mu;
  rel->set_unreachable_callback([&](const ReliableChannel::PeerUnreachable& e) {
    std::scoped_lock lk(seen_mu);
    seen = e;
    fired.fetch_add(1);
  });

  FaultPlan plan;
  plan.channel_drop_prob[{0, 1}] = 1.0;
  f.inject_faults(plan);
  // The callback runs on the sender's consumer.
  std::thread ack_drain([&] {
    while (f.recv(0).has_value()) {
    }
  });
  f.send(make(0, 1, 1, 9));

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fired.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fired.load(), 1);
  {
    std::scoped_lock lk(seen_mu);
    EXPECT_EQ(seen.src, 0u);
    EXPECT_EQ(seen.dst, 1u);
    EXPECT_EQ(seen.retries, cfg.max_retries);
  }

  // Declare the peer dead: channels to it stop retransmitting, so later
  // sends into the void do not produce a second verdict.
  rel->mark_dead(1);
  f.send(make(0, 1, 1, 10));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(rel->errors().size(), 1u);
  f.shutdown();
  ack_drain.join();
}

TEST(ReliableChannel, UnfilledAckStrideStillReportsZeroStandaloneAcks) {
  // Three deliveries against a stride of 8, and an ack flush window far
  // beyond the test: no standalone ack goes out, and the metrics say so
  // with a zero instead of leaving the key out.
  Fabric f(2);
  ReliabilityConfig cfg;
  cfg.ack_every = 8;
  cfg.initial_rto = std::chrono::hours(1);
  cfg.max_rto = std::chrono::hours(1);
  f.enable_reliability(cfg);
  for (std::uint64_t i = 0; i < 3; ++i) f.send(make(0, 1, 1, i));
  std::vector<Message> got;
  while (got.size() < 3) {
    const auto m = f.recv(1);
    ASSERT_TRUE(m.has_value());
    got.push_back(*m);
  }
  const MetricsSnapshot snap = f.metrics();
  ASSERT_EQ(snap.values.count("net.msg.rel_ack"), 1u);
  ASSERT_EQ(snap.values.count("net.bytes.rel_ack"), 1u);
  EXPECT_EQ(snap.get("net.msg.rel_ack"), 0u);
  EXPECT_EQ(snap.get("net.bytes.rel_ack"), 0u);
  f.shutdown();
}

TEST(ReliableChannel, FabricWithoutReliabilityReportsNoAckKind) {
  Fabric f(2);
  f.name_kind(1, "data");
  f.send(make(0, 1, 1));
  ASSERT_TRUE(f.recv(1).has_value());
  const MetricsSnapshot snap = f.metrics();
  EXPECT_EQ(snap.values.count("net.msg.rel_ack"), 0u);
  EXPECT_EQ(snap.get("net.msg.data"), 1u);
  f.shutdown();
}

}  // namespace
}  // namespace mc::net
