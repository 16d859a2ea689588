// Stall and deadlock watchdog for a mixed-consistency DSM instance.
//
// The Section 6 protocols are designed for reliable FIFO channels; under an
// adversarial fault plan (net/fault.h) a lost grant or a partitioned
// manager turns a correct program into a silent hang.  The watchdog makes
// that hang a crisp, diagnosable failure instead:
//
//   - every blocking DSM operation registers itself while blocked; a
//     supervision pass (poll()) fires once any wait exceeds the stall
//     deadline;
//   - the sync manager exposes its wait-for graph; a cycle that persists
//     across two consecutive polls is reported as a true lock-order
//     deadlock (with the cycle spelled out) rather than a generic stall;
//   - on firing, the watchdog assembles a Diagnostics dump — blocked
//     operations, lock table, barrier occupancy, per-endpoint in-flight
//     messages, dead reliable channels — which MixedSystem::run(body,
//     timeout) returns and bench harnesses embed in the RunReport's
//     "diagnostics" section (docs/METRICS.md).
//
// The watchdog owns no thread: whoever supervises calls poll() every
// Options::poll — MixedSystem::run(body, timeout) does so from the calling
// thread while it waits for the application threads.  Blocked threads
// check Watchdog::fired() on their condition-variable waits and unwind with
// StallError; the watchdog never unblocks anything itself and never calls
// back into DSM code while holding its own mutex.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"

namespace mc::dsm {

/// Thrown out of a blocked memory or synchronization operation once the
/// watchdog has fired, so every application thread of a wedged run unwinds
/// promptly instead of waiting out its own deadline.
class StallError : public std::runtime_error {
 public:
  explicit StallError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown out of a blocked operation on a process that a committed view
/// change removed from the membership (crash-stop simulation or eviction
/// by fault verdict).  A StallError subtype so existing unwind paths catch
/// it, but MixedSystem::run treats it as a clean per-process exit — the
/// surviving processes keep running and the run does not count as stalled.
class EvictedError : public StallError {
 public:
  explicit EvictedError(const std::string& what) : StallError(what) {}
};

class Watchdog {
 public:
  struct Options {
    /// A single blocked operation older than this fires the watchdog.
    std::chrono::nanoseconds stall_timeout{std::chrono::seconds(5)};
    /// Supervision period: MixedSystem::run(body, timeout) calls poll()
    /// this often from the caller's thread, and blocked threads re-check
    /// fired() at the same granularity.
    std::chrono::nanoseconds poll{std::chrono::milliseconds(25)};
  };

  /// Everything the watchdog saw when it fired.
  struct Diagnostics {
    bool fired = false;
    std::string reason;
    std::vector<std::string> stalled_waits;   ///< "p1: barrier ... (5023 ms)"
    std::vector<std::string> deadlock_cycle;  ///< "p0 -(lock 1)-> p1"
    std::vector<std::string> locks;           ///< sync-manager lock table dump
    std::vector<std::string> barriers;        ///< open barrier instances
    std::vector<std::size_t> in_flight;       ///< per-endpoint mailbox depth
    std::vector<std::string> unreachable;     ///< dead reliable channels
    std::string view;                         ///< membership view (elastic)
    std::vector<std::string> hot;             ///< profiler culprits (Config::profile)
  };

  /// Edge of the lock wait-for graph: `waiter` is queued on `lock`, which
  /// `holder` currently holds.
  struct WaitEdge {
    ProcId waiter = kNoProc;
    ProcId holder = kNoProc;
    LockId lock = 0;
  };

  /// The sync manager's liveness sample: how many messages its mailbox has
  /// handed to it, and how many still sit there.  A consumed count frozen
  /// across the stall deadline while `pending > 0` means the thread is
  /// wedged (not merely idle) — traffic is waiting that it never takes.
  /// The count includes local deadline messages, so an idle manager whose
  /// mailbox holds a keepalive deadline still shows progress each time one
  /// comes due.
  struct ManagerHealth {
    std::uint64_t consumed = 0;  ///< messages its mailbox released so far
    std::size_t pending = 0;     ///< messages sitting in its mailbox
  };

  explicit Watchdog(Options opts);

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Register a blocked operation (cold path — only reached once an
  /// operation actually blocks).  The token ends the wait.
  std::uint64_t wait_begin(ProcId proc, const char* what);
  void wait_end(std::uint64_t token);

  class WaitScope {
   public:
    WaitScope(Watchdog& wd, ProcId proc, const char* what)
        : wd_(wd), token_(wd.wait_begin(proc, what)) {}
    ~WaitScope() { wd_.wait_end(token_); }
    WaitScope(const WaitScope&) = delete;
    WaitScope& operator=(const WaitScope&) = delete;

   private:
    Watchdog& wd_;
    std::uint64_t token_;
  };

  /// Source of lock wait-for edges (the sync manager).  Called from poll()
  /// without the watchdog mutex held.
  void set_wait_graph_source(std::function<std::vector<WaitEdge>()> source);

  /// Extra diagnostics filled in when the watchdog fires (lock/barrier
  /// dumps, fabric in-flight counts).  Called without the mutex held.
  void set_diagnostics_source(std::function<void(Diagnostics&)> source);

  /// Source of the manager liveness sample.  poll() fires once the
  /// consumed count stays frozen for the stall deadline while the mailbox
  /// has pending traffic.  Called without the mutex held.
  void set_manager_probe(std::function<ManagerHealth()> probe);

  /// One supervision pass: the deadlock probe (a wait-for cycle seen on two
  /// consecutive passes), the manager probe, then the stall probe (any
  /// registered wait older than the deadline).  A no-op once fired.  One
  /// caller at a time.
  void poll();

  [[nodiscard]] bool fired() const {
    return fired_.load(std::memory_order_relaxed);
  }
  /// Number of operations currently registered as blocked — a liveness
  /// gauge for the time-series sampler (obs/timeseries.h).
  [[nodiscard]] std::size_t blocked_waits() const {
    std::scoped_lock lk(mu_);
    return waits_.size();
  }
  [[nodiscard]] std::chrono::nanoseconds poll_interval() const {
    return opts_.poll;
  }

  /// The dump assembled when the watchdog fired (default-constructed with
  /// fired == false otherwise).
  [[nodiscard]] Diagnostics diagnostics() const;

  /// Fire explicitly (first fire wins; later calls are no-ops).
  void fire(const std::string& reason, std::vector<std::string> cycle = {});

 private:
  struct Wait {
    ProcId proc;
    const char* what;
    std::chrono::steady_clock::time_point since;
  };

  [[nodiscard]] std::vector<std::string> describe_waits(
      std::chrono::steady_clock::time_point now) const;  // expects mu_ held
  /// One cycle of the wait-for graph as printable edges; empty if acyclic.
  [[nodiscard]] static std::vector<std::string> find_cycle(
      const std::vector<WaitEdge>& edges);

  const Options opts_;

  mutable std::mutex mu_;
  std::uint64_t next_token_ = 1;
  std::map<std::uint64_t, Wait> waits_;
  Diagnostics diag_;

  std::function<std::vector<WaitEdge>()> wait_graph_;
  std::function<void(Diagnostics&)> diag_source_;
  std::function<ManagerHealth()> manager_probe_;

  // Touched only by poll().
  std::vector<std::string> prev_cycle_;  // deadlock persistence across passes
  struct ManagerTrack {
    std::uint64_t consumed = 0;
    std::chrono::steady_clock::time_point since;
  };
  /// The manager's last progress while it had pending traffic.
  std::optional<ManagerTrack> manager_track_;

  std::atomic<bool> fired_{false};
};

}  // namespace mc::dsm
