// MixedSystem: one mixed-consistency DSM instance — the processes, the
// simulated fabric connecting them, and the sync manager process of
// Section 6 (locks, barriers, views) — with lifecycle management, metrics
// aggregation, and trace collection.  Fabric endpoints: processes
// 0..num_procs-1, the manager at num_procs.

#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "dsm/config.h"
#include "dsm/node.h"
#include "dsm/staleness.h"
#include "dsm/sync_manager.h"
#include "dsm/watchdog.h"
#include "history/history.h"

namespace mc::dsm {

class MixedSystem {
 public:
  explicit MixedSystem(Config cfg);
  ~MixedSystem();

  MixedSystem(const MixedSystem&) = delete;
  MixedSystem& operator=(const MixedSystem&) = delete;

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] std::size_t num_procs() const { return cfg_.num_procs; }

  [[nodiscard]] Node& node(ProcId p);

  /// Run `body(node, p)` on one thread per process and join them all.
  /// May be called repeatedly (phased programs).
  void run(const std::function<void(Node&, ProcId)>& body);

  /// Outcome of a watchdog-supervised run: whether it stalled, and the
  /// watchdog's dump if it did (embedded in RunReport "diagnostics").
  struct RunOutcome {
    bool stalled = false;
    Watchdog::Diagnostics diagnostics;
  };

  /// Like run(), but supervised by a watchdog with the given stall
  /// deadline: a wedged program (lost messages, partitioned manager, lock
  /// deadlock) terminates with diagnostics instead of hanging the caller.
  /// The calling thread runs the watchdog's passes (Watchdog::poll) while
  /// it waits; application threads unwind via StallError once it fires.
  RunOutcome run(const std::function<void(Node&, ProcId)>& body,
                 std::chrono::nanoseconds timeout);

  // ----- elastic membership (Config::elastic; dsm/view.h) -----

  /// Admit process p into the current view (blocks until the join
  /// handshake completes — see Node::join).  p must have been left out of
  /// Config::initial_members.
  void join(ProcId p) { node(p).join(); }

  /// Remove process p gracefully (blocks until a view without it commits).
  void leave(ProcId p) { node(p).leave(); }

  /// The view manager's current committed view.
  [[nodiscard]] View view() const;

  /// Merge the per-process traces recorded so far into a formal history
  /// (requires Config::record_trace).
  [[nodiscard]] history::History collect_history() const;

  /// Fabric- and node-level metrics (messages, bytes, blocked time).
  [[nodiscard]] MetricsSnapshot metrics() const;

  /// Merged contention profile across every node and the manager
  /// (Config::profile; src/obs/profiler.h).  Safe to call while the
  /// system runs — each per-component profiler is snapshotted under its
  /// own mutex.  Returns an empty report when profiling is off.
  [[nodiscard]] obs::ProfileReport profile() const;

  /// Attach a live operation sink to every node (nullptr detaches).  The
  /// sink sees each operation as it completes (obs/op_sink.h) — this is how
  /// an online ConsistencyMonitor observes the run.  Attach before run();
  /// the sink must outlive the system or be detached first.
  void attach_op_sink(obs::OpSink* sink);

  /// Expected member count per subset barrier (Config::barrier_members),
  /// in the shape ConsistencyMonitor wants.
  [[nodiscard]] std::map<BarrierId, std::size_t> barrier_membership() const;

  [[nodiscard]] net::Fabric& fabric() { return fabric_; }

  /// Stop managers and delivery threads.  Called by the destructor;
  /// idempotent.  No public API may be used afterwards.
  void shutdown();

 private:
  /// Run `body` on one thread per process and join them; with a watchdog,
  /// poll it from this thread every Options::poll until they have all
  /// returned.
  void run_threads(const std::function<void(Node&, ProcId)>& body, Watchdog* wd);

  Config cfg_;
  net::Fabric fabric_;
  std::unique_ptr<SyncManager> manager_;
  /// Issued-write counters shared by every node (Config::track_staleness).
  std::unique_ptr<StalenessTable> staleness_;
  /// Contention profilers (Config::profile): one per node, then the
  /// manager's — merged by profile().  Empty when off.
  std::vector<std::unique_ptr<obs::ContentionProfiler>> profilers_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// The attached live sink (attach_op_sink); the elastic view listener
  /// forwards membership events to it from the manager thread.
  std::atomic<obs::OpSink*> op_sink_{nullptr};
  bool down_ = false;
};

}  // namespace mc::dsm
