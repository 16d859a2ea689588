// The application threads of a baseline system.

#pragma once

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.h"
#include "obs/tracer.h"

namespace mc::baseline {

/// Run `body(node, p)` for every process p on its own thread and join them
/// all — the baselines' counterpart of dsm::MixedSystem::run.
template <typename NodeT>
void run_threads(std::vector<std::unique_ptr<NodeT>>& nodes,
                 const std::function<void(NodeT&, ProcId)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(nodes.size());
  for (ProcId p = 0; p < nodes.size(); ++p) {
    threads.emplace_back([&nodes, &body, p] {
      // Application-lane marker for the critical-path analyzer.
      obs::trace_instant("proc.start", "dsm", {"proc", p});
      body(*nodes[p], p);
      obs::trace_instant("proc.end", "dsm", {"proc", p});
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace mc::baseline
