// Hybrid consistency baseline (Attiya & Friedman, STOC '92) — the closest
// relative the paper compares itself against (Section 2): operations are
// labeled *weak* or *strong*; all processes observe the same order between
// any two strong operations and between a strong and a weak operation of
// one process, while adjacent weak operations may be observed in different
// orders.
//
// Implementation (the standard construction):
//   - weak writes broadcast over FIFO channels and apply on arrival; weak
//     reads are local — the PRAM fast path;
//   - a strong operation first *flushes* (probe + acknowledgements ensure
//     every peer has applied this process's earlier weak writes), then
//     takes a sequencer round trip: strong writes are applied everywhere in
//     global order, strong reads block until the issuer has applied the
//     global prefix assigned to them.
//
// The paper's point (Section 2): mixed consistency replaces strong
// *operations* with explicit synchronization *primitives* (locks, barriers,
// awaits).  bench_sync's C10 experiment quantifies that trade on a
// producer/consumer handoff.

#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "net/actor.h"
#include "net/fabric.h"
#include "net/fault.h"
#include "net/reliable.h"

namespace mc::baseline {

enum HybridMsgKind : std::uint16_t {
  /// Weak write broadcast.  a=var, b=value, c=writer seq.
  kHybridWeak = 48,
  /// Process -> sequencer strong write.  a=var, b=value, c=writer seq.
  kHybridStrongWrite = 49,
  /// Sequencer -> everyone.  a=var, b=value, c=writer seq, d=global seq;
  /// payload = {writer}.
  kHybridOrdered = 50,
  /// Strong-operation flush probe / ack.  a=token.
  kHybridFlush = 51,
  kHybridFlushAck = 52,
  /// Process -> sequencer strong-read ticket request.  a=token.
  kHybridReadTicket = 53,
  /// Sequencer -> requester.  a=token, b=global seq watermark.
  kHybridTicket = 54,
};

struct HybridConfig {
  std::size_t num_procs = 2;
  std::size_t num_vars = 64;
  net::LatencyModel latency = net::LatencyModel::zero();
  std::uint64_t seed = 1;
  /// Robustness layers, mirroring dsm::Config (docs/FAULTS.md): reliability
  /// first, then the fault plan, so cross-model comparisons can run all
  /// three systems on the same faulty fabric.
  bool reliable = false;
  net::ReliabilityConfig reliability;
  std::optional<net::FaultPlan> faults;
};

struct HybridStats {
  Counter weak_reads, weak_writes, strong_reads, strong_writes;
  LatencyHistogram strong_blocked;
};

class HybridNode {
 public:
  HybridNode(const HybridConfig& cfg, ProcId self, net::Fabric& fabric,
             net::Endpoint sequencer);

  HybridNode(const HybridNode&) = delete;
  HybridNode& operator=(const HybridNode&) = delete;

  [[nodiscard]] ProcId id() const { return self_; }

  [[nodiscard]] Value weak_read(VarId x);
  void weak_write(VarId x, Value v);
  [[nodiscard]] Value strong_read(VarId x);
  void strong_write(VarId x, Value v);

  [[nodiscard]] const HybridStats& stats() const { return stats_; }

  void stop() { actor_.join(); }

 private:
  /// Ensure every peer has applied this process's weak prefix (the
  /// weak-before-strong ordering guarantee).
  void flush(std::unique_lock<std::mutex>& lk);

  const HybridConfig& cfg_;
  const ProcId self_;
  net::Fabric& fabric_;
  const net::Endpoint sequencer_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Value> store_;
  std::uint64_t applied_global_ = 0;  // strong writes applied, in order
  SeqNo issued_strong_ = 0;
  SeqNo applied_own_strong_ = 0;
  std::uint64_t token_counter_ = 0;
  std::map<std::uint64_t, std::size_t> flush_acks_;
  std::map<std::uint64_t, std::uint64_t> read_tickets_;

  HybridStats stats_;
  net::Actor actor_{fabric_, self_};
};

/// The sequencer + node bundle, mirroring ScSystem.
class HybridSystem {
 public:
  explicit HybridSystem(HybridConfig cfg);
  ~HybridSystem();

  HybridSystem(const HybridSystem&) = delete;
  HybridSystem& operator=(const HybridSystem&) = delete;

  [[nodiscard]] HybridNode& node(ProcId p);
  void run(const std::function<void(HybridNode&, ProcId)>& body);
  [[nodiscard]] MetricsSnapshot metrics() const;
  void shutdown();

 private:
  HybridConfig cfg_;
  net::Fabric fabric_;
  std::vector<std::unique_ptr<HybridNode>> nodes_;
  std::uint64_t next_seq_ = 0;
  bool down_ = false;
  /// The sequencer, on the endpoint after the processes'.
  net::Actor sequencer_{fabric_, static_cast<net::Endpoint>(cfg_.num_procs)};
};

}  // namespace mc::baseline
