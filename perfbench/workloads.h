// The repo benchmark's workloads (see NOTES.md for why each was chosen).
//
// A workload generates its inputs from a seed, computes the reference its
// jobs are checked against, and then runs jobs back to back.  A job is one
// closed-loop unit of work — one solve, one factorization, one paging run,
// or one pair of checked traces — timed by the caller around run_job().
// check() then compares the job's output with the reference, outside the
// timed region.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"

namespace perfbench {

/// DSM processes per job: the host's core count on the reference machine,
/// so each application thread can own a core (NOTES.md).
inline constexpr std::size_t kProcs = 4;

struct JobResult {
  /// Oracle verdict, filled by Workload::check().
  bool ok = true;
  std::string failure;

  /// Memory operations completed (DSM) or operations checked (history).
  std::uint64_t ops = 0;
  /// The job's wire cost: fabric messages and bytes on the DSM workloads;
  /// dependency edges and trace text bytes on check-stream (NOTES.md).
  std::uint64_t wire_msgs = 0;
  std::uint64_t wire_bytes = 0;

  /// Runtime counters and histograms (MixedSystem::metrics()) or the
  /// checker's progress counters.
  mc::MetricsSnapshot metrics;

  /// Spans the benchmark recorded around its own calls into a layer, in
  /// nanoseconds (e.g. "construct", "run", "shutdown", "feed", "prune").
  std::map<std::string, std::uint64_t> spans_ns;
  /// Most operations the history checker held at once (check-stream).
  std::uint64_t live_nodes_peak = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate the inputs from `seed` and compute the reference outputs.
  /// Throws std::runtime_error when the generated input is unusable.
  virtual void setup(std::uint64_t seed) = 0;

  /// Run one job.  Only this call is timed.
  virtual JobResult run_job() = 0;

  /// Compare the last job's output with the reference; sets ok/failure.
  virtual void check(JobResult& job) = 0;

  /// Whether jobs run on the DSM (threads, fabric) rather than only the
  /// history checker.
  [[nodiscard]] virtual bool dsm() const { return true; }

  /// Untimed jobs run after set-up so the timed loop starts warm.
  [[nodiscard]] virtual int warmup_jobs() const = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// nullptr when `name` is not a workload.
std::unique_ptr<Workload> make_workload(std::string_view name);

}  // namespace perfbench
