// The simulated message-passing fabric: a fixed set of endpoints connected
// by FIFO channels with configurable latency and full traffic accounting.
//
// This is the substitute for the workstation network underneath the Maya
// platform (Section 6): processes and managers are endpoints, each endpoint
// owns a mailbox, and every protocol byte is counted so benchmarks can
// report machine-independent costs.
//
// The send path takes no fabric-wide lock: channel sequence numbers are
// per-channel atomics, latency stamping keeps its state per sender
// (net/latency.h), and accounting lives in cache-line-aligned per-sender
// shards that metrics() sums.  Each mailbox has one lane per sending
// endpoint, so the only lock a send takes is its own lane's in the
// destination mailbox, and it wakes the receiver only when the receiver is
// parked.  Receiving is bulk: drain() hands a consumer every deliverable
// message at once (net/mailbox.h).
//
// Two optional layers sandwich the ideal channel (both off by default, one
// branch on a null pointer when absent):
//   - a FaultInjector (net/fault.h) makes the channel lossy — seeded drops,
//     duplication, delay spikes, partitions, crash-stop endpoints;
//   - a ReliableChannel (net/reliable.h) rebuilds the paper's reliable-FIFO
//     assumption on top of the lossy channel with acks and retransmits.

#pragma once

#include <array>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "net/fault.h"
#include "net/latency.h"
#include "net/mailbox.h"
#include "net/message.h"

namespace mc::net {

class ReliableChannel;
struct ReliabilityConfig;

class Fabric {
 public:
  /// Up to this many distinct protocol message kinds are accounted
  /// separately (kinds at or above the cap share the last bucket).
  static constexpr std::size_t kKindBuckets = 64;

  Fabric(std::size_t endpoints, LatencyModel latency = LatencyModel::zero(),
         std::uint64_t seed = 1);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] std::size_t endpoints() const { return mailboxes_.size(); }

  [[nodiscard]] Mailbox& mailbox(Endpoint e);

  /// Send `m` from m.src to m.dst, stamping channel sequence and simulated
  /// delivery time.  Runs the message through the reliability layer and the
  /// fault plan when installed.  Thread-safe.
  void send(Message m);

  /// Send bypassing the reliability wrap (retransmissions and acks — they
  /// still face the fault plan and normal stamping/accounting).
  void send_raw(Message m);

  /// Bulk receive for endpoint `e`: clears `out`, blocks until a message
  /// is deliverable, then moves up to `max` messages into `out` in delivery
  /// order — the reliable in-order stream when reliability is enabled, the
  /// raw mailbox otherwise.  Returns false once the endpoint is closed and
  /// drained.  One consumer thread per endpoint.
  bool drain(Endpoint e, std::vector<Message>& out,
             std::size_t max = std::numeric_limits<std::size_t>::max());

  /// Single-message form of drain().
  std::optional<Message> recv(Endpoint e);

  /// Send a copy of `m` from `src` to every endpoint in `dsts`.
  void multicast(const Message& m, const std::vector<Endpoint>& dsts);

  /// Close every mailbox (messages already in flight are still delivered).
  void shutdown();

  // --- fault injection & reliability (docs/FAULTS.md) ---

  /// Install (or replace) a fault plan.  Runtime-togglable; do not call
  /// concurrently with in-flight sends you care about replaying.
  void inject_faults(const FaultPlan& plan);

  /// Stop injecting faults (the injector's counters survive for metrics).
  void clear_faults();

  /// Layer the ack/retransmit protocol over every subsequent send/recv.
  /// Enable once, before protocol traffic starts.
  void enable_reliability(const ReliabilityConfig& cfg);

  [[nodiscard]] bool reliability_enabled() const;
  [[nodiscard]] ReliableChannel* reliable_channel();

  // --- accounting ---

  [[nodiscard]] std::uint64_t messages_sent() const;
  [[nodiscard]] std::uint64_t bytes_sent() const;
  [[nodiscard]] std::uint64_t messages_of_kind(std::uint16_t kind) const;
  [[nodiscard]] std::uint64_t bytes_of_kind(std::uint16_t kind) const;

  /// Sends rejected because the destination mailbox had already been
  /// closed — shutdown races, visible instead of silent.
  [[nodiscard]] std::uint64_t sends_after_close() const;

  /// Messages currently sitting in each endpoint's mailbox (diagnostics).
  [[nodiscard]] std::vector<std::size_t> in_flight() const;

  /// Latency of the send path itself (stamping + accounting + mailbox
  /// insertion, including contention on the sender's lane and waking a
  /// parked receiver) —
  /// the fabric's hot path.  A snapshot merged across the sender shards.
  [[nodiscard]] LatencyHistogram send_latency() const;

  /// Snapshot of fabric-level metrics, with per-kind counts labeled through
  /// `kind_name` (protocol layers install their kind names at startup).
  /// A kind appears once counted; rel_ack appears, zero or not, whenever
  /// reliability is installed.
  /// Includes fault and reliability counters when those layers exist.
  [[nodiscard]] MetricsSnapshot metrics() const;

  /// Register a human-readable name for a message kind (for metrics keys).
  void name_kind(std::uint16_t kind, std::string name);

 private:
  /// Optional layers, behind a single pointer so the hot path pays one
  /// branch when neither is installed.
  struct Ext;

  /// Send-side accounting of one sending endpoint, on its own cache lines
  /// so concurrent senders never bump a shared counter.  Message and byte
  /// totals are sums of the per-kind counters.
  struct alignas(64) SenderShard {
    Counter send_after_close;
    std::array<Counter, kKindBuckets> per_kind;
    std::array<Counter, kKindBuckets> per_kind_bytes;
    LatencyHistogram send_ns;

    void account(const Message& m);
  };

  void deliver(Message m, Ext* ext);

  /// Sum of get(shard) over every sender's shard.
  template <typename Get>
  [[nodiscard]] std::uint64_t sum_shards(Get get) const;

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  LatencyStamper stamper_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> channel_seq_;  // [src * n + dst]
  std::unique_ptr<SenderShard[]> shards_;                      // [src]

  mutable std::mutex ext_mu_;           // guards installation, not the hot path
  std::unique_ptr<Ext> ext_storage_;
  std::atomic<Ext*> ext_{nullptr};

  mutable std::mutex names_mu_;
  std::array<std::string, kKindBuckets> kind_names_;
};

}  // namespace mc::net
