// Reliable FIFO channels on top of a lossy fabric.
//
// The paper's Section 6 implementation assumes reliable FIFO channels; a
// workstation network only approximates them.  This layer reconstructs the
// assumption the way a real deployment must: per-channel sequence numbers,
// receiver-side dedup and reorder buffering, cumulative acks (piggybacked
// on reverse traffic, otherwise sent standalone every few deliveries or
// after a flush window), and retransmission on timeout with exponential
// backoff.  No thread of its own keeps time: each deadline belongs to one
// endpoint — retransmit timeouts and keepalive probes to the channel's
// sender, ack flushes to its receiver — which posts it as a local
// kRelDeadlineKind message into its own mailbox, due at the deadline.  The
// endpoint's consumer handles it inside drain(), after the rest of the
// batch it arrived with, so an ack already in the mailbox is always seen
// before the timeout it would cancel.  A channel that exhausts its retries
// surfaces a structured PeerUnreachable record instead of retrying forever
// — the stall itself is the watchdog's job to report (src/dsm/watchdog.h).
//
// The protocol state machine (sender and receiver sides) is documented in
// docs/FAULTS.md.  When reliability is disabled the fabric never consults
// this class; when enabled, every non-ack message is sequenced and the
// fabric's recv path routes through ReliableChannel::recv.

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "common/stats.h"
#include "net/message.h"

namespace mc::net {

class Fabric;

/// Wire kind of standalone cumulative acks (field a = acked sequence).
/// Chosen high so protocol layers' own kinds (1..~20) never collide.
inline constexpr std::uint16_t kRelAckKind = 62;

/// Kind of the local deadline message an endpoint posts into its own
/// mailbox (ReliableChannel::drain handles it).  Never on the wire: it
/// bypasses Fabric::send, so it is never stamped, counted, faulted or
/// traced.
inline constexpr std::uint16_t kRelDeadlineKind = 60;

/// Wire kind of keepalive probes (ReliabilityConfig::keepalive).  Probes
/// are sequenced like app traffic — so an unreachable peer fails them
/// through the normal retransmit/give-up path — but the receiver consumes
/// them after acking; they are never handed up.
inline constexpr std::uint16_t kRelPingKind = 61;

struct ReliabilityConfig {
  /// First retransmit timeout for a freshly sent message.
  std::chrono::nanoseconds initial_rto{std::chrono::milliseconds(2)};
  /// Backoff cap.
  std::chrono::nanoseconds max_rto{std::chrono::milliseconds(200)};
  /// Retransmissions per message before the channel is declared dead.
  int max_retries = 10;

  /// Delayed cumulative acks: emit a standalone ack only every `ack_every`
  /// deliveries on a channel (1 = classic ack-per-message).  Acks are
  /// cumulative, so skipping intermediates loses nothing; duplicates are
  /// still re-acked immediately (the sender is already retransmitting) and
  /// reverse traffic still piggybacks the newest ack for free.  A
  /// suppressed ack is flushed ack_flush_window() = initial_rto / 3 after
  /// it became owed, so no config can make the flush overtake the sender's
  /// first timeout.
  std::uint64_t ack_every = 8;

  /// Deterministic seeded backoff jitter in [0, 1].  Each doubled RTO is
  /// scaled by a factor in [1-jitter, 1+jitter] drawn from a splitmix64
  /// hash of (jitter_seed, channel, seq, attempt), then re-clamped to
  /// max_rto — retransmit storms from many channels against one dead peer
  /// de-synchronize, while the give-up verdict stays bounded by
  /// max_retries * max_rto per message.  0 disables jitter.
  double jitter = 0.0;
  std::uint64_t jitter_seed = 1;

  /// Failure detection on quiet channels: a channel that has carried
  /// sequenced traffic but has been idle (nothing in flight, no acks) for
  /// this long sends a ping.  The ping rides the normal sequence space, so
  /// a dead peer fails it through retransmit/give-up and surfaces a
  /// PeerUnreachable verdict even when every survivor is blocked in a
  /// barrier and generating no app traffic of its own.  0 disables probing
  /// (the default); elastic membership turns it on (dsm/system.cpp).
  std::chrono::nanoseconds keepalive{0};
};

class ReliableChannel {
 public:
  /// A channel that exhausted its retries.  Surfaced through errors() and
  /// `net.peer_unreachable`; the watchdog includes it in diagnostics.
  struct PeerUnreachable {
    Endpoint src = kNoEndpoint;
    Endpoint dst = kNoEndpoint;
    std::uint64_t first_unacked = 0;
    int retries = 0;
  };

  ReliableChannel(Fabric& fabric, std::size_t endpoints, ReliabilityConfig cfg);
  ~ReliableChannel();

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Sender side: assign the next per-channel sequence number, piggyback
  /// the reverse channel's cumulative ack, and buffer a copy for
  /// retransmission.  Called by Fabric::send before the message enters the
  /// lossy path.  Thread-safe.
  void on_send(Message& m);

  /// Receiver side: blocking bulk receive of the in-order stream for
  /// endpoint `e` — the reliable replacement for Mailbox::drain.  Drains
  /// the raw mailbox in bulk and processes the whole drain under one
  /// channel-lock hold, consuming protocol traffic (acks, duplicates,
  /// out-of-order buffering) internally, then fires `e`'s due deadlines if
  /// the drain held a deadline message; the acks, retransmits and probes
  /// this produces go out after the lock is released.  Clears `out` and
  /// moves up to `max` in-order messages into it (any surplus waits for
  /// the next call).  Returns false once the underlying mailbox is closed
  /// and drained.  One consumer thread per endpoint, and every endpoint
  /// that sends or receives reliably needs one: its deadlines fire only
  /// here.
  bool drain(Endpoint e, std::vector<Message>& out,
             std::size_t max = std::numeric_limits<std::size_t>::max());

  /// Register a callback invoked — outside the channel lock, from the
  /// sender's consumer inside drain() — each time a channel exhausts its
  /// retries.  Elastic
  /// membership (dsm/view.h) routes the verdict to the view manager as a
  /// fault report.  Install before protocol traffic flows.
  void set_unreachable_callback(std::function<void(const PeerUnreachable&)> cb);

  /// Declare endpoint `e` dead: every channel *to* it is marked dead and
  /// its retransmit buffers are discarded.  Called after a view change has
  /// evicted the peer, so survivors stop retransmitting into the void.
  void mark_dead(Endpoint e);

  /// The next backoff step for a message on `channel` with sequence `seq`
  /// entering retransmit `attempt`: doubled, jittered, clamped to
  /// cfg.max_rto.  Pure — exposed for unit testing the jitter contract.
  [[nodiscard]] static std::chrono::nanoseconds backoff_rto(
      std::chrono::nanoseconds prev, const ReliabilityConfig& cfg,
      std::uint64_t channel, std::uint64_t seq, int attempt);

  /// How long a suppressed ack may stay owed before its flush deadline
  /// ships it: a third of cfg.initial_rto (667 us at the default 2 ms RTO).
  /// Shorter windows leave reverse traffic too little time to carry the ack.
  [[nodiscard]] static std::chrono::nanoseconds ack_flush_window(
      const ReliabilityConfig& cfg) {
    return cfg.initial_rto / 3;
  }

  // --- accounting (docs/METRICS.md) ---
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_.get(); }
  [[nodiscard]] std::uint64_t dup_dropped() const { return dup_dropped_.get(); }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_.get(); }
  [[nodiscard]] std::uint64_t ack_bytes() const { return ack_bytes_.get(); }
  /// Deliveries whose standalone ack was suppressed by ack_every (they were
  /// covered later by a cumulative ack, a piggyback, or a flush deadline).
  [[nodiscard]] std::uint64_t acks_delayed() const { return acks_delayed_.get(); }
  /// Owed acks satisfied by a reverse-traffic piggyback instead of a
  /// standalone ack.
  [[nodiscard]] std::uint64_t acks_piggybacked() const { return acks_piggybacked_.get(); }
  /// Deadline messages handled (`net.rel_timer.wakeups`): one per posted
  /// deadline, whether or not anything was due when it came.
  [[nodiscard]] std::uint64_t timer_wakeups() const { return timer_wakeups_.get(); }
  /// Keepalive probes sent (ReliabilityConfig::keepalive).
  [[nodiscard]] std::uint64_t keepalives() const { return keepalives_.get(); }
  [[nodiscard]] const LatencyHistogram& rto_ns() const { return rto_ns_; }
  [[nodiscard]] std::vector<PeerUnreachable> errors() const;

  void add_metrics(MetricsSnapshot& snap) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct InFlight {
    Message msg;  // deliver_at restamped on every (re)send
    Clock::time_point deadline;
    std::chrono::nanoseconds rto;
    int attempts = 0;
  };

  struct SendState {
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, InFlight> inflight;
    bool dead = false;
    /// Last send or ack on this channel; keepalive probes fire once a
    /// once-used channel has been quiet past cfg_.keepalive.
    Clock::time_point last_activity{};
  };

  struct RecvState {
    std::uint64_t delivered = 0;  // highest in-order sequence handed up
    std::uint64_t acked = 0;      // highest sequence the sender knows about
    /// A suppressed ack is owed since this instant (valid when
    /// acked < delivered); the receiver flushes it after ack_flush_window().
    Clock::time_point ack_pending_since{};
    std::map<std::uint64_t, Message> reorder;
  };

  [[nodiscard]] std::size_t channel(Endpoint src, Endpoint dst) const {
    return static_cast<std::size_t>(src) * endpoints_ + dst;
  }

  /// What one drain pass transmits once mu_ is released.
  struct Outbox {
    std::vector<Message> acks;     // standalone acks (send_raw)
    std::vector<Message> resends;  // retransmitted copies (send_raw)
    std::vector<Message> pings;    // keepalive probes (full send path)
    std::vector<PeerUnreachable> errors;
  };

  /// Process one raw message for consumer `e` (caller holds mu_); in-order
  /// app messages are appended to ready_[e], owed acks to `acks_out`.
  void process(Endpoint e, Message m, std::vector<Message>& acks_out);
  /// A cumulative ack for channel e -> peer arrived at e.
  void handle_ack(Endpoint e, Endpoint peer, std::uint64_t acked);
  [[nodiscard]] Message make_ack(Endpoint from, Endpoint to, std::uint64_t acked) const;

  /// Endpoint `e` armed a deadline (caller holds mu_): post a deadline
  /// message into e's mailbox unless one due no later already waits there.
  void arm(Endpoint e, Clock::time_point deadline);
  /// Fire e's due deadlines (caller holds mu_): retransmits and keepalives
  /// on e's row of send_, ack flushes on e's column of recv_.  Re-arms e's
  /// earliest remaining deadline.
  void fire_due(Endpoint e, Outbox& out);

  Fabric& fabric_;
  const std::size_t endpoints_;
  const ReliabilityConfig cfg_;

  mutable std::mutex mu_;
  std::vector<SendState> send_;                 // [src * n + dst]
  std::vector<RecvState> recv_;                 // [src * n + dst]
  std::vector<std::deque<Message>> ready_;      // per endpoint, not yet handed up
  std::vector<PeerUnreachable> errors_;
  std::function<void(const PeerUnreachable&)> unreachable_cb_;

  Counter retransmits_, dup_dropped_, acks_sent_, ack_bytes_, acks_delayed_;
  Counter acks_piggybacked_, keepalives_, timer_wakeups_;
  LatencyHistogram rto_ns_;

  /// Per endpoint, the due times of the deadline messages it has posted
  /// and not yet handled.
  std::vector<std::multiset<Clock::time_point>> posted_;
};

}  // namespace mc::net
