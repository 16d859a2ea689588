// A multi-producer single-consumer mailbox with simulated-latency release.
//
// Messages become visible to the consumer only once their `deliver_at`
// stamp has passed; among deliverable messages the mailbox releases them in
// arrival order, which — combined with the fabric's per-channel monotone
// deliver_at stamping — yields the FIFO channels that Section 6 assumes.
//
// The consumer receives in bulk: drain() blocks until one message is
// deliverable and then moves out every message deliverable at that instant
// under one lock hold, in (deliver_at, arrival) order.  One wake-up and one
// lock acquisition thereby serve a whole backlog instead of one message.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <vector>

#include "net/message.h"

namespace mc::net {

class Mailbox {
 public:
  /// Enqueue a message (called by the fabric).  Never blocks.  Returns
  /// false — and discards the message — once the mailbox is closed, so the
  /// fabric can account for shutdown-raced sends instead of losing them
  /// silently (`net.send_after_close`).
  [[nodiscard]] bool push(Message m);

  /// Blocking bulk receive: clears `out`, waits until a message is
  /// deliverable, then moves up to `max` (>= 1) deliverable messages into
  /// `out` in (deliver_at, arrival) order.  Returns false (with `out` empty) once
  /// the mailbox is closed *and* drained — pending messages are still
  /// delivered after close so that shutdown cannot drop protocol traffic.
  bool drain(std::vector<Message>& out,
             std::size_t max = std::numeric_limits<std::size_t>::max());

  /// Blocking single receive (drain of at most one message).
  std::optional<Message> recv();

  /// Non-blocking receive of a deliverable message.
  std::optional<Message> try_recv();

  /// Wake all blocked receivers and reject future pushes.
  void close();

  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t pending() const;

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

  /// Remove and return the heap's top by move (caller holds mu_).
  Message pop_top();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Entry> heap_;  // min-heap under std::greater<>
  std::uint64_t arrivals_ = 0;
  bool closed_ = false;
};

}  // namespace mc::net
