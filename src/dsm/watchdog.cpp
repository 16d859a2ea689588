#include "dsm/watchdog.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "obs/tracer.h"

namespace mc::dsm {

namespace {

std::string format_ms(std::chrono::nanoseconds d) {
  return std::to_string(
             std::chrono::duration_cast<std::chrono::milliseconds>(d).count()) +
         " ms";
}

}  // namespace

Watchdog::Watchdog(Options opts) : opts_(opts) {
  MC_CHECK(opts_.stall_timeout.count() > 0);
  MC_CHECK(opts_.poll.count() > 0);
}

std::uint64_t Watchdog::wait_begin(ProcId proc, const char* what) {
  std::scoped_lock lk(mu_);
  const std::uint64_t token = next_token_++;
  waits_.emplace(token, Wait{proc, what, std::chrono::steady_clock::now()});
  return token;
}

void Watchdog::wait_end(std::uint64_t token) {
  std::scoped_lock lk(mu_);
  waits_.erase(token);
}

void Watchdog::set_wait_graph_source(
    std::function<std::vector<WaitEdge>()> source) {
  std::scoped_lock lk(mu_);
  wait_graph_ = std::move(source);
}

void Watchdog::set_diagnostics_source(
    std::function<void(Diagnostics&)> source) {
  std::scoped_lock lk(mu_);
  diag_source_ = std::move(source);
}

void Watchdog::set_manager_probe(std::function<ManagerHealth()> probe) {
  std::scoped_lock lk(mu_);
  manager_probe_ = std::move(probe);
}

std::vector<std::string> Watchdog::describe_waits(
    std::chrono::steady_clock::time_point now) const {
  std::vector<std::string> out;
  out.reserve(waits_.size());
  for (const auto& [token, w] : waits_) {
    out.push_back("p" + std::to_string(w.proc) + ": " + w.what + " (" +
                  format_ms(now - w.since) + ")");
  }
  return out;
}

std::vector<std::string> Watchdog::find_cycle(
    const std::vector<WaitEdge>& edges) {
  // The graph is tiny (bounded by the process count), so a simple DFS with
  // an explicit path suffices.
  std::map<ProcId, std::vector<WaitEdge>> adj;
  for (const WaitEdge& e : edges) adj[e.waiter].push_back(e);

  std::set<ProcId> done;
  for (const auto& [start, unused] : adj) {
    (void)unused;
    if (done.count(start) != 0) continue;
    std::vector<WaitEdge> path;
    std::set<ProcId> on_path;
    ProcId cur = start;
    while (true) {
      if (on_path.count(cur) != 0) {
        // Trim the tail leading into the cycle, then format it.
        std::size_t first = 0;
        while (path[first].waiter != cur) ++first;
        std::vector<std::string> cycle;
        for (std::size_t i = first; i < path.size(); ++i) {
          cycle.push_back("p" + std::to_string(path[i].waiter) + " -(lock " +
                          std::to_string(path[i].lock) + ")-> p" +
                          std::to_string(path[i].holder));
        }
        return cycle;
      }
      auto it = adj.find(cur);
      if (it == adj.end() || it->second.empty()) break;
      on_path.insert(cur);
      // Following the first outgoing edge finds any cycle reachable from
      // `start` along that choice; a real all-holders deadlock shows up on
      // some start vertex because every participant is itself a waiter.
      path.push_back(it->second.front());
      cur = path.back().holder;
    }
    for (const ProcId p : on_path) done.insert(p);
    done.insert(start);
  }
  return {};
}

void Watchdog::fire(const std::string& reason, std::vector<std::string> cycle) {
  if (fired_.load(std::memory_order_relaxed)) return;

  Diagnostics d;
  d.fired = true;
  d.reason = reason;
  d.deadlock_cycle = std::move(cycle);
  std::function<void(Diagnostics&)> source;
  {
    std::scoped_lock lk(mu_);
    d.stalled_waits = describe_waits(std::chrono::steady_clock::now());
    source = diag_source_;
  }
  // Collectors take their own leaf locks (lock table, mailboxes); never
  // call them while holding the watchdog mutex.
  if (source) source(d);
  // Crash context belongs in the one-line verdict, not just the dump: a
  // stall caused by a dead peer should say so (docs/FAULTS.md).
  if (!d.unreachable.empty()) {
    d.reason += "; unreachable: " + d.unreachable.front();
    if (d.unreachable.size() > 1) {
      d.reason += " (+" + std::to_string(d.unreachable.size() - 1) + " more)";
    }
  }
  if (!d.view.empty()) d.reason += "; view: " + d.view;
  // Live-profile culprits (Config::profile): the verdict line points at the
  // hottest contended object, not just the wait set.
  for (const std::string& h : d.hot) d.reason += "; " + h;

  {
    std::scoped_lock lk(mu_);
    if (fired_.load(std::memory_order_relaxed)) return;  // lost the race
    diag_ = std::move(d);
    fired_.store(true, std::memory_order_release);
  }
  if (obs::trace_enabled()) {
    obs::trace_instant("watchdog.fired", "dsm", {"waits", diag_.stalled_waits.size()},
                       {"deadlock", std::uint64_t{diag_.deadlock_cycle.empty() ? 0u : 1u}});
  }
}

Watchdog::Diagnostics Watchdog::diagnostics() const {
  std::scoped_lock lk(mu_);
  return diag_;
}

void Watchdog::poll() {
  if (fired()) return;
  std::function<std::vector<WaitEdge>()> graph;
  std::function<ManagerHealth()> probe;
  {
    std::scoped_lock lk(mu_);
    graph = wait_graph_;
    probe = manager_probe_;
  }

  // 1. Deadlock probe: a wait-for cycle seen on two consecutive passes is
  //    reported as a deadlock (one sighting can be a transient snapshot of
  //    a healthy handoff).
  if (graph) {
    std::vector<std::string> cycle = find_cycle(graph());
    if (!cycle.empty() && cycle == prev_cycle_) {
      // Build the reason before passing `cycle` by value: argument
      // evaluation order is unspecified, and the parameter's move
      // construction must not race the front()/size() reads.
      const std::string reason =
          "lock-order deadlock: " + cycle.front() +
          (cycle.size() > 1 ? " ... (" + std::to_string(cycle.size()) + " edges)" : "");
      fire(reason, std::move(cycle));
      return;
    }
    prev_cycle_ = std::move(cycle);
  }

  // 2. Manager probe: a manager whose mailbox hands it nothing across the
  //    stall deadline while traffic waits there is wedged — it will never
  //    grant or release anything, so don't wait for an application
  //    thread's own deadline to name the real culprit.
  if (probe) {
    const ManagerHealth h = probe();
    const auto now = std::chrono::steady_clock::now();
    if (h.pending == 0) {
      manager_track_.reset();  // idle, not wedged
    } else if (!manager_track_ || manager_track_->consumed != h.consumed) {
      manager_track_ = ManagerTrack{h.consumed, now};  // made progress
    } else if (now - manager_track_->since >= opts_.stall_timeout) {
      fire("manager thread stalled: sync manager (consumed count frozen at " +
           std::to_string(h.consumed) + " with " + std::to_string(h.pending) +
           " pending message" + (h.pending == 1 ? "" : "s") + " for " +
           format_ms(now - manager_track_->since) + ")");
      return;
    }
  }

  // 3. Stall probe: any registered wait older than the deadline.
  std::string reason;
  {
    std::scoped_lock lk(mu_);
    const auto now = std::chrono::steady_clock::now();
    const Wait* oldest = nullptr;
    for (const auto& [token, w] : waits_) {
      if (oldest == nullptr || w.since < oldest->since) oldest = &w;
    }
    if (oldest != nullptr && now - oldest->since >= opts_.stall_timeout) {
      reason = "stall: p" + std::to_string(oldest->proc) + " " + oldest->what +
               " for " + format_ms(now - oldest->since);
    }
  }
  if (!reason.empty()) fire(reason);
}

}  // namespace mc::dsm
