#include "net/fabric.h"

#include <gtest/gtest.h>

#include "net/actor.h"

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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

TEST(Mailbox, DeliversInFifoOrderWithoutLatency) {
  Fabric f(2);
  for (std::uint64_t i = 0; i < 100; ++i) f.send(make(0, 1, 1, i));
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto m = f.mailbox(1).recv();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->a, i);
    EXPECT_EQ(m->channel_seq, i);
  }
}

TEST(Mailbox, TryRecvOnEmptyReturnsNothing) {
  Fabric f(2);
  EXPECT_FALSE(f.mailbox(1).try_recv().has_value());
}

TEST(Mailbox, CloseWakesBlockedReceiver) {
  Fabric f(2);
  std::thread t([&f] {
    const auto m = f.mailbox(1).recv();
    EXPECT_FALSE(m.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  f.shutdown();
  t.join();
}

TEST(Mailbox, DrainsPendingMessagesAfterClose) {
  Fabric f(2);
  f.send(make(0, 1, 1, 42));
  f.shutdown();
  const auto m = f.mailbox(1).recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->a, 42u);
  EXPECT_FALSE(f.mailbox(1).recv().has_value());
}

TEST(Mailbox, DrainMovesOutEveryDeliverableMessage) {
  Mailbox mb;
  std::vector<const std::uint64_t*> storage;
  for (std::uint64_t i = 0; i < 5; ++i) {
    Message m = make(0, 1, 1, i);
    m.payload = {i, i + 1, i + 2};
    storage.push_back(m.payload.data());
    ASSERT_TRUE(mb.push(std::move(m)));
  }
  std::vector<Message> out;
  ASSERT_TRUE(mb.drain(out));
  ASSERT_EQ(out.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].a, i);
    // Moved, not copied: the payload is the very buffer that was pushed.
    EXPECT_EQ(out[i].payload.data(), storage[i]);
  }
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Mailbox, DrainOrdersByDeliverAtThenArrival) {
  Mailbox mb;
  const SimTime past = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const std::vector<std::pair<int, std::uint64_t>> pushes = {
      {3, 0}, {1, 1}, {2, 2}, {1, 3}, {0, 4}, {2, 5}};
  for (const auto& [offset_us, tag] : pushes) {
    Message m = make(0, 1, 1, tag);
    m.deliver_at = past + std::chrono::microseconds(offset_us);
    ASSERT_TRUE(mb.push(std::move(m)));
  }
  std::vector<Message> out;
  ASSERT_TRUE(mb.drain(out));
  std::vector<std::uint64_t> tags;
  for (const Message& m : out) tags.push_back(m.a);
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{4, 1, 3, 2, 5, 0}));
}

TEST(Mailbox, DrainGatesOnDeliverAt) {
  Mailbox mb;
  const SimTime now = std::chrono::steady_clock::now();
  Message later = make(0, 1, 1, 1);
  later.deliver_at = now + std::chrono::milliseconds(30);
  Message due = make(0, 1, 1, 2);
  due.deliver_at = now;
  ASSERT_TRUE(mb.push(std::move(later)));
  ASSERT_TRUE(mb.push(std::move(due)));
  std::vector<Message> out;
  ASSERT_TRUE(mb.drain(out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a, 2u);
  // The next drain blocks until the held message's stamp passes.
  ASSERT_TRUE(mb.drain(out));
  EXPECT_GE(std::chrono::steady_clock::now(), now + std::chrono::milliseconds(30));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a, 1u);
}

TEST(Mailbox, DrainRespectsMaxAndKeepsTheRest) {
  Mailbox mb;
  for (std::uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(mb.push(make(0, 1, 1, i)));
  std::vector<Message> out;
  ASSERT_TRUE(mb.drain(out, 2));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].a, 1u);
  ASSERT_TRUE(mb.drain(out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].a, 2u);
}

TEST(Mailbox, DrainStillDrainsAfterClose) {
  Mailbox mb;
  for (std::uint64_t i = 0; i < 3; ++i) ASSERT_TRUE(mb.push(make(0, 1, 1, i)));
  mb.close();
  std::vector<Message> out;
  ASSERT_TRUE(mb.drain(out));
  EXPECT_EQ(out.size(), 3u);
  EXPECT_FALSE(mb.drain(out));
  EXPECT_TRUE(out.empty());
}

TEST(Fabric, ChannelsAreFifoPerSenderUnderJitter) {
  LatencyModel lat;
  lat.base = std::chrono::microseconds(50);
  lat.jitter = std::chrono::microseconds(200);
  Fabric f(3, lat, /*seed=*/7);
  for (std::uint64_t i = 0; i < 50; ++i) {
    f.send(make(0, 2, 1, i));
    f.send(make(1, 2, 2, i));
  }
  std::uint64_t next_from_0 = 0;
  std::uint64_t next_from_1 = 0;
  for (int i = 0; i < 100; ++i) {
    const auto m = f.mailbox(2).recv();
    ASSERT_TRUE(m.has_value());
    if (m->src == 0) {
      EXPECT_EQ(m->a, next_from_0++);
    } else {
      EXPECT_EQ(m->a, next_from_1++);
    }
  }
  EXPECT_EQ(next_from_0, 50u);
  EXPECT_EQ(next_from_1, 50u);
}

TEST(Fabric, LatencyDelaysDelivery) {
  LatencyModel lat;
  lat.base = std::chrono::milliseconds(30);
  Fabric f(2, lat);
  const auto start = std::chrono::steady_clock::now();
  f.send(make(0, 1, 1));
  const auto m = f.mailbox(1).recv();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(m.has_value());
  EXPECT_GE(elapsed, std::chrono::milliseconds(25));
}

TEST(Fabric, MulticastReachesEveryDestination) {
  Fabric f(4);
  f.multicast(make(0, kNoEndpoint, 3, 9), {1, 2, 3});
  for (Endpoint e = 1; e < 4; ++e) {
    const auto m = f.mailbox(e).recv();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->a, 9u);
    EXPECT_EQ(m->dst, e);
  }
  EXPECT_EQ(f.messages_sent(), 3u);
}

TEST(Fabric, AccountsMessagesAndBytes) {
  Fabric f(2);
  Message m = make(0, 1, 2);
  m.payload = {1, 2, 3, 4};
  const std::size_t expected_bytes = m.wire_bytes();
  f.send(std::move(m));
  EXPECT_EQ(f.messages_sent(), 1u);
  EXPECT_EQ(f.bytes_sent(), expected_bytes);
  EXPECT_EQ(f.messages_of_kind(2), 1u);
  EXPECT_EQ(f.messages_of_kind(3), 0u);
}

TEST(Fabric, MetricsUseRegisteredKindNames) {
  Fabric f(2);
  f.name_kind(5, "update");
  f.send(make(0, 1, 5));
  const auto snap = f.metrics();
  EXPECT_EQ(snap.get("net.messages"), 1u);
  EXPECT_EQ(snap.get("net.msg.update"), 1u);
}

TEST(Mailbox, PushAfterCloseReturnsFalseAndDiscards) {
  Fabric f(2);
  f.mailbox(1).close();
  EXPECT_FALSE(f.mailbox(1).push(make(0, 1, 1, 7)));
  EXPECT_EQ(f.mailbox(1).pending(), 0u);
  EXPECT_FALSE(f.mailbox(1).try_recv().has_value());
}

TEST(Fabric, CountsSendsAfterClose) {
  Fabric f(2);
  f.send(make(0, 1, 1, 1));
  f.mailbox(1).close();
  f.send(make(0, 1, 1, 2));
  f.send(make(0, 1, 1, 3));
  EXPECT_EQ(f.sends_after_close(), 2u);
  // The raced sends are still accounted as sent (they left the sender) but
  // only the pre-close message is deliverable.
  EXPECT_EQ(f.messages_sent(), 3u);
  EXPECT_EQ(f.metrics().get("net.send_after_close"), 2u);
  ASSERT_TRUE(f.mailbox(1).recv().has_value());
  EXPECT_FALSE(f.mailbox(1).recv().has_value());
}

TEST(Fabric, CloseRecvRaceAccountsEveryMessage) {
  // A receiver draining while the fabric shuts down mid-stream: every send
  // must either be received or show up in sends_after_close — none lost
  // silently.
  constexpr std::uint64_t kTotal = 5000;
  Fabric f(2);
  std::uint64_t received = 0;
  std::thread receiver([&] {
    while (f.mailbox(1).recv().has_value()) ++received;
  });
  std::thread sender([&] {
    for (std::uint64_t i = 0; i < kTotal; ++i) f.send(make(0, 1, 1, i));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  f.shutdown();
  sender.join();
  receiver.join();
  EXPECT_EQ(received + f.sends_after_close(), kTotal);
  EXPECT_EQ(f.messages_sent(), kTotal);
}

TEST(Fabric, MulticastAccountingUnderConcurrentSenders) {
  constexpr int kPerSender = 200;
  Fabric f(5);
  const std::vector<Endpoint> dsts{3, 4};
  std::vector<std::thread> senders;
  for (Endpoint s = 0; s < 3; ++s) {
    senders.emplace_back([&f, &dsts, s] {
      for (int i = 0; i < kPerSender; ++i) {
        Message m = make(s, 0, 2, static_cast<std::uint64_t>(i));
        m.payload = {1, 2};
        f.multicast(m, dsts);
      }
    });
  }
  for (auto& t : senders) t.join();
  const std::uint64_t expected = 3ull * kPerSender * dsts.size();
  EXPECT_EQ(f.messages_sent(), expected);
  EXPECT_EQ(f.messages_of_kind(2), expected);
  Message probe = make(0, 3, 2);
  probe.payload = {1, 2};
  EXPECT_EQ(f.bytes_sent(), expected * probe.wire_bytes());
  for (const Endpoint d : dsts) {
    std::uint64_t got = 0;
    while (f.mailbox(d).try_recv().has_value()) ++got;
    EXPECT_EQ(got, 3ull * kPerSender);
  }
}

TEST(Fabric, ConcurrentSendersDoNotLoseMessages) {
  Fabric f(5);
  std::vector<std::thread> senders;
  for (Endpoint s = 0; s < 4; ++s) {
    senders.emplace_back([&f, s] {
      for (int i = 0; i < 500; ++i) f.send(make(s, 4, 1));
    });
  }
  for (auto& t : senders) t.join();
  int received = 0;
  while (f.mailbox(4).try_recv().has_value()) ++received;
  EXPECT_EQ(received, 2000);
  EXPECT_EQ(f.messages_sent(), 2000u);
}

TEST(Fabric, SenderShardsReconcileUnderConcurrentSenders) {
  // Five senders, each fanning three kinds of varying size out to every
  // endpoint (itself included): the per-kind keys must sum exactly to the
  // totals, and every channel's sequence numbers must be dense and in
  // send order.
  constexpr Endpoint kEndpoints = 5;
  constexpr std::uint64_t kRounds = 300;
  Fabric f(kEndpoints);
  f.name_kind(1, "one");
  f.name_kind(2, "two");
  std::vector<std::thread> senders;
  for (Endpoint s = 0; s < kEndpoints; ++s) {
    senders.emplace_back([&f, s] {
      for (std::uint64_t i = 0; i < kRounds; ++i) {
        for (Endpoint d = 0; d < kEndpoints; ++d) {
          Message m = make(s, d, static_cast<std::uint16_t>(1 + (i + d) % 3), i);
          m.payload.assign((i + s) % 4, 0);
          f.send(std::move(m));
        }
      }
    });
  }
  for (auto& t : senders) t.join();

  const MetricsSnapshot snap = f.metrics();
  const std::uint64_t total = std::uint64_t{kEndpoints} * kEndpoints * kRounds;
  EXPECT_EQ(snap.get("net.messages"), total);
  EXPECT_EQ(f.messages_sent(), total);
  std::uint64_t kind_msgs = 0;
  std::uint64_t kind_bytes = 0;
  for (const auto& [key, v] : snap.values) {
    if (key.rfind("net.msg.", 0) == 0) kind_msgs += v;
    if (key.rfind("net.bytes.", 0) == 0) kind_bytes += v;
  }
  EXPECT_EQ(kind_msgs, snap.get("net.messages"));
  EXPECT_EQ(kind_bytes, snap.get("net.bytes"));
  EXPECT_EQ(snap.get("net.bytes"), f.bytes_sent());
  EXPECT_EQ(snap.get("net.send_ns.count"), total);
  EXPECT_EQ(f.send_latency().count(), total);

  for (Endpoint d = 0; d < kEndpoints; ++d) {
    std::map<Endpoint, std::uint64_t> next_seq;
    std::map<Endpoint, std::uint64_t> next_round;
    std::vector<Message> out;
    while (f.mailbox(d).pending() > 0 && f.mailbox(d).drain(out)) {
      for (const Message& m : out) {
        EXPECT_EQ(m.channel_seq, next_seq[m.src]++);
        EXPECT_EQ(m.a, next_round[m.src]++);
      }
    }
    for (Endpoint s = 0; s < kEndpoints; ++s) EXPECT_EQ(next_seq[s], kRounds);
  }
}

TEST(Mailbox, MultiProducerStressThroughFabricLosesAndDuplicatesNothing) {
  // Eight senders with a lane each, plus two threads that share sender 8's
  // lane, all writing to endpoint 9 while its consumer drains in bulk.
  // Every message arrives exactly once; each channel is FIFO in
  // channel_seq, and on the shared channel each thread's own sends stay in
  // its send order.
  constexpr Endpoint kSoloSenders = 8;
  constexpr Endpoint kShared = 8;
  constexpr Endpoint kDst = 9;
  constexpr std::uint64_t kPerThread = 4000;
  Fabric f(10);
  std::vector<Message> got;
  std::thread consumer([&] {
    std::vector<Message> out;
    while (got.size() < (kSoloSenders + 2) * kPerThread && f.drain(kDst, out)) {
      for (Message& m : out) got.push_back(std::move(m));
    }
  });
  std::vector<std::thread> senders;
  for (std::uint64_t t = 0; t < kSoloSenders + 2; ++t) {
    const Endpoint src = t < kSoloSenders ? static_cast<Endpoint>(t) : kShared;
    senders.emplace_back([&f, t, src] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        Message m = make(src, kDst, 1, i);
        m.b = t;
        f.send(std::move(m));
      }
    });
  }
  for (auto& s : senders) s.join();
  consumer.join();

  ASSERT_EQ(got.size(), (kSoloSenders + 2) * kPerThread);
  std::map<std::uint64_t, std::uint64_t> next_a;          // per thread
  std::map<Endpoint, std::uint64_t> next_seq;             // per solo channel
  std::map<std::uint64_t, std::uint64_t> last_shared_seq;  // per shared thread
  std::set<std::uint64_t> shared_seqs;
  for (const Message& m : got) {
    EXPECT_EQ(m.a, next_a[m.b]++) << "thread " << m.b;
    if (m.src == kShared) {
      EXPECT_TRUE(shared_seqs.insert(m.channel_seq).second) << "duplicate " << m.channel_seq;
      if (last_shared_seq.contains(m.b)) EXPECT_GT(m.channel_seq, last_shared_seq[m.b]);
      last_shared_seq[m.b] = m.channel_seq;
    } else {
      EXPECT_EQ(m.channel_seq, next_seq[m.src]++) << "src " << m.src;
    }
  }
  for (std::uint64_t t = 0; t < kSoloSenders + 2; ++t) EXPECT_EQ(next_a[t], kPerThread);
  ASSERT_EQ(shared_seqs.size(), 2 * kPerThread);
  EXPECT_EQ(*shared_seqs.rbegin(), 2 * kPerThread - 1);
  EXPECT_EQ(f.mailbox(kDst).pending(), 0u);
  EXPECT_EQ(f.messages_sent(), (kSoloSenders + 2) * kPerThread);
}

TEST(Mailbox, CloseRacingPushesDrainsEveryAcceptedMessage) {
  // Senders race close(): every push the mailbox accepted is drained
  // exactly once, and every push it rejected shows in net.send_after_close.
  constexpr std::uint64_t kPerSender = 2000;
  constexpr Endpoint kSenders = 4;
  for (int round = 0; round < 20; ++round) {
    Fabric f(kSenders + 1);
    std::set<std::pair<Endpoint, std::uint64_t>> seen;
    std::uint64_t dups = 0;
    std::thread consumer([&] {
      std::vector<Message> out;
      while (f.drain(kSenders, out)) {
        for (const Message& m : out) dups += seen.insert({m.src, m.a}).second ? 0 : 1;
      }
    });
    std::atomic<bool> go{false};
    std::vector<std::thread> senders;
    for (Endpoint s = 0; s < kSenders; ++s) {
      senders.emplace_back([&f, &go, s] {
        while (!go.load()) std::this_thread::yield();
        for (std::uint64_t i = 0; i < kPerSender; ++i) f.send(make(s, kSenders, 1, i));
      });
    }
    go.store(true);
    // Close at a different point of the stream each round.
    for (int spin = 0; spin < round * 200; ++spin) std::this_thread::yield();
    f.mailbox(kSenders).close();
    for (auto& s : senders) s.join();
    consumer.join();

    const std::uint64_t total = std::uint64_t{kSenders} * kPerSender;
    const std::uint64_t rejected = f.metrics().get("net.send_after_close");
    EXPECT_EQ(dups, 0u);
    EXPECT_EQ(seen.size(), total - rejected) << "round " << round;
    EXPECT_EQ(f.mailbox(kSenders).pending(), 0u);
  }
}

TEST(Mailbox, ParkedConsumerWakesOnPushAndOnHeldDeadline) {
  const auto wait_for_park = [](const Mailbox& mb, std::uint64_t parks) {
    while (mb.parks() < parks) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };

  // Nothing held: the consumer parks without a deadline and the push wakes it.
  Mailbox empty(2);
  std::vector<Message> out;
  std::thread consumer([&] { ASSERT_TRUE(empty.drain(out)); });
  wait_for_park(empty, 1);
  ASSERT_TRUE(empty.push(make(1, 0, 1, 7)));
  consumer.join();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a, 7u);
  EXPECT_EQ(empty.wakes(), 1u);

  // Parked on a held message due far in the future: a push due now wakes
  // the consumer early, and it releases only the due message.
  const SimTime now = std::chrono::steady_clock::now();
  Mailbox held(2);
  Message later = make(0, 1, 1, 1);
  later.deliver_at = now + std::chrono::seconds(60);
  ASSERT_TRUE(held.push(std::move(later)));
  std::thread early([&] { ASSERT_TRUE(held.drain(out)); });
  wait_for_park(held, 1);
  Message due = make(1, 1, 1, 2);
  due.deliver_at = now;
  ASSERT_TRUE(held.push(std::move(due)));
  early.join();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a, 2u);
  EXPECT_EQ(held.wakes(), 1u);
  EXPECT_EQ(held.pending(), 1u);

  // Parked on a held message with no further pushes: the consumer wakes at
  // its deliver_at on its own, with no producer notification.
  Mailbox timed(2);
  Message soon = make(0, 1, 1, 3);
  soon.deliver_at = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  const SimTime soon_at = soon.deliver_at;
  ASSERT_TRUE(timed.push(std::move(soon)));
  ASSERT_TRUE(timed.drain(out));
  EXPECT_GE(std::chrono::steady_clock::now(), soon_at);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a, 3u);
  EXPECT_EQ(timed.parks(), 1u);
  EXPECT_EQ(timed.wakes(), 0u);
}

TEST(Mailbox, PendingAndTryRecvReturnWhileConsumerIsParked) {
  Mailbox mb(2);
  Message held = make(0, 1, 1, 1);
  held.deliver_at = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  ASSERT_TRUE(mb.push(std::move(held)));
  std::vector<Message> out;
  std::thread consumer([&] { ASSERT_TRUE(mb.drain(out)); });
  while (mb.parks() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Neither call waits for the parked consumer.
  EXPECT_EQ(mb.pending(), 1u);
  EXPECT_FALSE(mb.try_recv().has_value());
  EXPECT_FALSE(mb.closed());
  ASSERT_TRUE(mb.push(make(1, 1, 1, 2)));
  consumer.join();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a, 2u);
  EXPECT_EQ(mb.pending(), 1u);
}


// The endpoint actor, driven through a real fabric: messages are sent from
// endpoints 0 and 1 into endpoint 2, whose actor is stepped by hand (or by
// its own thread in the last case).  Node's end-to-end use of the run hook
// is covered by the DeliveryBatch suite.
constexpr std::uint16_t kRunKind = 1;

TEST(Actor, DispatchesInArrivalOrderAndTheRunHookSeesMaximalRuns) {
  Fabric f(3);
  Actor actor(f, 2);
  std::vector<std::string> log;
  auto record = [&log](const Message& m) {
    log.push_back(std::to_string(m.kind) + ":" + std::to_string(m.a));
  };
  for (const std::uint16_t kind : {kRunKind, std::uint16_t{2}, std::uint16_t{3}}) {
    actor.on(kind, record);
  }
  actor.on_run(kRunKind, [&log](const std::function<void()>& dispatch) {
    log.emplace_back("[");
    dispatch();
    log.emplace_back("]");
  });
  const std::vector<std::pair<Endpoint, std::uint16_t>> sends = {
      {0, 1}, {1, 1}, {0, 2}, {0, 1}, {1, 3}, {1, 1}, {0, 1}, {0, 1}};
  for (std::uint64_t i = 0; i < sends.size(); ++i) {
    f.send(make(sends[i].first, 2, sends[i].second, i));
  }
  ASSERT_TRUE(actor.step());
  const std::vector<std::string> want = {"[", "1:0", "1:1", "]", "2:2", "[", "1:3", "]",
                                         "3:4", "[", "1:5", "1:6", "1:7", "]"};
  EXPECT_EQ(log, want);
  f.shutdown();
}

TEST(Actor, DropsKindsWithoutAHandler) {
  Fabric f(3);
  Actor actor(f, 2);
  std::vector<std::uint64_t> seen;
  actor.on(kRunKind, [&seen](const Message& m) { seen.push_back(m.a); });
  // Unregistered kinds, the last at the top of the handler table and one
  // past it, go nowhere and do not disturb the registered kind's order.
  const std::vector<std::uint16_t> kinds = {kRunKind, 5, kRunKind, Fabric::kKindBuckets - 1,
                                            Fabric::kKindBuckets, kRunKind};
  for (std::uint64_t i = 0; i < kinds.size(); ++i) f.send(make(0, 2, kinds[i], i));
  ASSERT_TRUE(actor.step());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 2, 5}));
  f.shutdown();
}

TEST(Actor, AfterBatchHookFiresOncePerDrainedBatch) {
  Fabric f(3);
  Actor actor(f, 2);
  std::size_t handled = 0;
  std::vector<std::size_t> handled_at_batch_end;
  actor.on(kRunKind, [&handled](const Message&) { ++handled; });
  actor.after_batch([&] { handled_at_batch_end.push_back(handled); });
  for (std::uint64_t i = 0; i < 3; ++i) f.send(make(0, 2, kRunKind, i));
  ASSERT_TRUE(actor.step());
  f.send(make(1, 2, kRunKind, 3));
  f.send(make(0, 2, kRunKind, 4));
  ASSERT_TRUE(actor.step());
  EXPECT_EQ(handled_at_batch_end, (std::vector<std::size_t>{3, 5}));
  f.shutdown();
}

TEST(Actor, StepReturnsFalseOnlyAfterShutdownAndDrain) {
  Fabric f(3);
  Actor actor(f, 2);
  std::vector<std::uint64_t> seen;
  actor.on(kRunKind, [&seen](const Message& m) { seen.push_back(m.a); });
  f.send(make(0, 2, kRunKind, 0));
  f.send(make(1, 2, kRunKind, 1));
  f.shutdown();
  // Closed but not drained: the messages already in flight come first.
  ASSERT_TRUE(actor.step());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_FALSE(actor.step());
  EXPECT_FALSE(actor.step());

  // The consumer thread runs the same steps: it handles everything sent
  // before the shutdown and then exits, so join() returns.
  Fabric g(3);
  std::atomic<std::uint64_t> sum{0};
  Actor threaded(g, 2);
  threaded.on(kRunKind, [&sum](const Message& m) { sum += m.a; });
  threaded.start();
  for (std::uint64_t i = 1; i <= 100; ++i) g.send(make(i % 2, 2, kRunKind, i));
  g.shutdown();
  threaded.join();
  EXPECT_EQ(sum.load(), 5050u);
}

}  // namespace
}  // namespace mc::net
