#include "net/fabric.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
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

}  // namespace
}  // namespace mc::net
