// A multi-producer single-consumer mailbox with simulated-latency release.
//
// Messages become visible to the consumer only once their `deliver_at`
// stamp has passed; among deliverable messages the mailbox releases them in
// (deliver_at, arrival) order, which — combined with the fabric's
// per-channel monotone deliver_at stamping — yields the FIFO channels that
// Section 6 assumes.
//
// Producers do not share a lock.  The mailbox has one lane per sending
// endpoint (the fabric creates one lane per endpoint; a message goes to lane
// `src`): a push takes only its lane's short lock, stamps a mailbox-wide
// `arrival` from an atomic and appends.  The consumer moves every lane's
// backlog into a private min-heap on (deliver_at, arrival) and releases
// from there, so the order among collected messages is exactly the order a
// single shared heap would give, and each lane stays FIFO.
//
// Park/wake: the consumer blocks only when nothing is deliverable, on a
// separate park mutex, with a timeout at the earliest held deliver_at.  It
// publishes that deadline in `park_until_` and then re-reads `arrivals_`
// (which counts accepted pushes); a producer bumps `arrivals_` and then
// reads `park_until_` (Dekker order, both sequentially consistent), so at
// least one side sees the other.  A producer notifies only a consumer
// parked past the new message's deliver_at, and disarms the deadline so a
// park normally costs one producer notification.  pending() reads two
// atomics, and a parked consumer holds neither the receive lock nor the
// park mutex, so pending() and try_recv() never wait on it.
//
// The consumer receives in bulk: drain() blocks until one message is
// deliverable and then moves out every message deliverable at that instant.
//
// Deliver_at also carries local deadlines: a node's staging flush and the
// reliability layer's timeouts are messages an endpoint pushes into its own
// lane, due at the deadline, so the consumer's park timeout is the only
// timer an endpoint needs.  At close every held message is released at
// once; their handlers check closed() and do nothing.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "net/message.h"

namespace mc::net {

class Mailbox {
 public:
  /// `lanes` is the number of sending endpoints; a message from `src` uses
  /// lane `src % lanes`.
  explicit Mailbox(std::size_t lanes = 1);

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueue a message (called by the fabric).  Never blocks on the
  /// consumer.  Returns false — and discards the message — once the mailbox
  /// is closed, so the fabric can account for shutdown-raced sends instead
  /// of losing them silently (`net.send_after_close`).
  [[nodiscard]] bool push(Message m);

  /// Blocking bulk receive: clears `out`, waits until a message is
  /// deliverable, then moves up to `max` (>= 1) deliverable messages into
  /// `out` in (deliver_at, arrival) order.  Returns false (with `out` empty) once
  /// the mailbox is closed *and* drained — every message accepted before
  /// close is still delivered, so shutdown cannot drop protocol traffic.
  /// After close, held messages are released without waiting for their
  /// deliver_at.
  bool drain(std::vector<Message>& out,
             std::size_t max = std::numeric_limits<std::size_t>::max());

  /// Blocking single receive (drain of at most one message).
  std::optional<Message> recv();

  /// Non-blocking receive of a deliverable message.
  std::optional<Message> try_recv();

  /// Wake the blocked receiver and reject future pushes.
  void close();

  [[nodiscard]] bool closed() const;

  /// Messages accepted and not yet received (a racy snapshot).
  [[nodiscard]] std::size_t pending() const;

  /// Messages handed to receivers so far: the consumer's progress count,
  /// which advances on local deadline messages too (the watchdog's manager
  /// probe reads it).
  [[nodiscard]] std::uint64_t released() const {
    return released_.load(std::memory_order_acquire);
  }

  /// Times the consumer blocked, and producer notifications that woke it.
  [[nodiscard]] std::uint64_t parks() const { return parks_.get(); }
  [[nodiscard]] std::uint64_t wakes() const { return wakes_.get(); }

 private:
  struct Entry {
    Message msg;
    std::uint64_t arrival = 0;

    // Heap order by (deliver_at, arrival): earliest deliverable on top,
    // FIFO among equal stamps.
    bool operator>(const Entry& o) const {
      if (msg.deliver_at != o.msg.deliver_at) return msg.deliver_at > o.msg.deliver_at;
      return arrival > o.arrival;
    }
  };

  /// One sender's queue, on its own cache lines.
  struct alignas(64) Lane {
    std::mutex mu;
    std::vector<Entry> items;           // guarded by mu, in arrival order
    std::atomic<bool> nonempty{false};  // hint for the consumer's scan
  };

  /// `park_until_` value of a consumer that is not parked: no deliver_at
  /// is earlier, so no producer wakes it.
  static constexpr SimTime::rep kNotParked = std::numeric_limits<SimTime::rep>::min();

  /// Move lane backlogs into held_ (caller holds take_mu_).  `all` locks
  /// every lane, which closes the race with pushes that passed the closed
  /// check; otherwise only lanes flagged nonempty are visited, and only
  /// when arrivals_ is ahead of collected_.
  void collect(bool all);

  /// Remove and return the heap's top by move (caller holds take_mu_).
  Message pop_top();

  /// Block until a push is not yet collected (`collected` is the arrival
  /// count the caller has seen), `until` passes, or the mailbox closes.
  void park(std::optional<SimTime> until, std::uint64_t collected);

  /// Producer half of the park protocol: notify a consumer parked past
  /// `deliver_at`, at most once per park.
  void wake_if_parked(SimTime deliver_at);

  const std::size_t lane_count_;
  std::unique_ptr<Lane[]> lanes_;

  // Shared by every producer, on one cache line: a push bumps arrivals_
  // (which also counts accepted messages), then reads park_until_.
  alignas(64) std::atomic<std::uint64_t> arrivals_{0};
  std::atomic<SimTime::rep> park_until_{kNotParked};
  std::atomic<bool> closed_{false};

  // Consumer side.  take_mu_ serialises receivers; with the usual single
  // consumer it is never contended, and it is released while parked.
  alignas(64) std::mutex take_mu_;
  std::vector<Entry> held_;      // guarded by take_mu_; min-heap under std::greater<>
  std::vector<Entry> scratch_;   // guarded by take_mu_; swapped with a lane's items
  std::uint64_t collected_ = 0;  // guarded by take_mu_; arrivals moved into held_
  std::atomic<std::uint64_t> released_{0};  // handed to receivers, for pending()

  std::mutex park_mu_;
  std::condition_variable park_cv_;

  Counter parks_;
  Counter wakes_;
};

}  // namespace mc::net
