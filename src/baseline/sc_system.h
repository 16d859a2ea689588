// Sequentially consistent DSM baseline on the simulated fabric.
//
// Reads are local and instantaneous; writes are totally ordered through the
// sequencer and block until the writer has applied its own write (which, by
// in-order application, implies it has applied every earlier write in the
// global order).  This realizes Definition 1 and exposes the latency/
// message costs that motivate the paper's weak models (Section 1).

#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "baseline/sequencer.h"
#include "common/stats.h"
#include "common/types.h"
#include "history/history.h"
#include "net/actor.h"
#include "net/fabric.h"
#include "net/fault.h"
#include "net/reliable.h"

namespace mc::baseline {

struct ScConfig {
  std::size_t num_procs = 2;
  std::size_t num_vars = 64;
  net::LatencyModel latency = net::LatencyModel::zero();
  std::uint64_t seed = 1;
  bool record_trace = false;
  /// Robustness layers, mirroring dsm::Config (docs/FAULTS.md): reliability
  /// is installed before the fault plan so every protocol message is
  /// sequenced before the channel turns lossy.  Cross-model comparisons can
  /// then run all three systems on the same faulty fabric.
  bool reliable = false;
  net::ReliabilityConfig reliability;
  std::optional<net::FaultPlan> faults;
};

struct ScStats {
  Counter reads, writes, awaits, barriers;
  LatencyHistogram write_blocked, await_blocked, barrier_blocked;
};

class ScNode {
 public:
  ScNode(const ScConfig& cfg, ProcId self, net::Fabric& fabric, net::Endpoint sequencer);

  ScNode(const ScNode&) = delete;
  ScNode& operator=(const ScNode&) = delete;

  [[nodiscard]] ProcId id() const { return self_; }

  [[nodiscard]] Value read(VarId x);
  void write(VarId x, Value v);
  void await(VarId x, Value v);
  void barrier(BarrierId b = 0);

  [[nodiscard]] double read_double(VarId x) { return double_of(read(x)); }
  void write_double(VarId x, double d) { write(x, value_of(d)); }
  [[nodiscard]] std::int64_t read_int(VarId x) { return int_of(read(x)); }
  void write_int(VarId x, std::int64_t i) { write(x, value_of(i)); }
  void await_int(VarId x, std::int64_t i) { await(x, value_of(i)); }

  [[nodiscard]] const ScStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<history::Operation>& trace() const { return trace_; }

  void stop() { actor_.join(); }

 private:
  const ScConfig& cfg_;
  const ProcId self_;
  net::Fabric& fabric_;
  const net::Endpoint sequencer_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  struct Slot {
    Value value = 0;
    WriteId last = kInitialWrite;
  };
  std::vector<Slot> store_;
  std::uint64_t applied_seq_ = 0;      // highest applied global sequence
  SeqNo issued_writes_ = 0;            // local writes sent to the sequencer
  SeqNo applied_own_writes_ = 0;       // local writes already applied
  std::map<BarrierId, std::uint64_t> barrier_epoch_;
  std::map<std::pair<BarrierId, std::uint64_t>, std::uint64_t> barrier_release_;

  std::vector<history::Operation> trace_;
  ScStats stats_;
  net::Actor actor_{fabric_, self_};
};

class ScSystem {
 public:
  explicit ScSystem(ScConfig cfg);
  ~ScSystem();

  ScSystem(const ScSystem&) = delete;
  ScSystem& operator=(const ScSystem&) = delete;

  [[nodiscard]] const ScConfig& config() const { return cfg_; }
  [[nodiscard]] ScNode& node(ProcId p);
  [[nodiscard]] net::Fabric& fabric() { return fabric_; }

  void run(const std::function<void(ScNode&, ProcId)>& body);

  [[nodiscard]] history::History collect_history() const;
  [[nodiscard]] MetricsSnapshot metrics() const;

  void shutdown();

 private:
  ScConfig cfg_;
  net::Fabric fabric_;
  std::unique_ptr<Sequencer> sequencer_;
  std::vector<std::unique_ptr<ScNode>> nodes_;
  bool down_ = false;
};

}  // namespace mc::baseline
