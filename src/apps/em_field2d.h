// Section 5.2 in two dimensions: a TE-mode Yee scheme over a 2-D grid —
// the paper's application cites Madsen's Maxwell solvers on spatial grids,
// so alongside the 1-D pedagogical version (em_field.h) we provide the
// fuller 2-D computation:
//
//   Ez[i][j] += cE * (Hy[i][j] - Hy[i-1][j] - Hx[i][j] + Hx[i][j-1])
//   Hx[i][j] -= cH * (Ez[i][j+1] - Ez[i][j])
//   Hy[i][j] += cH * (Ez[i+1][j] - Ez[i][j])
//
// Row strips are distributed across processes; each E phase needs the
// upper neighbour's boundary Hy row and each H phase the lower neighbour's
// boundary Ez row.  Boundary rows are shared through DSM (ghost copies);
// the interior stays process-local.  Barriers separate phases and PRAM
// reads suffice (Corollary 2), exactly as in Figure 4.

#pragma once

#include <vector>

#include "common/stats.h"
#include "dsm/config.h"

namespace mc::apps {

struct Em2dProblem {
  std::size_t nx = 32;  ///< rows
  std::size_t ny = 32;  ///< columns
  std::size_t steps = 8;
  double c_e = 0.4;
  double c_h = 0.4;

  /// Initial Ez: a raised-cosine bump centered in the grid.
  [[nodiscard]] std::vector<double> initial_ez() const;
};

struct Em2dResult {
  std::vector<double> ez, hx, hy;  // nx*ny each, row-major
  double elapsed_ms = 0.0;
  MetricsSnapshot metrics;
  /// Merged contention profile (only when em2d_mixed's `profile` is set).
  obs::ProfileReport profile;
};

/// Sequential reference (identical arithmetic and update order).
Em2dResult em2d_reference(const Em2dProblem& prob);

/// Mixed-consistency run: row strips, ghost boundary rows, barriers, reads
/// under the given label.  Optional chaos-testing knobs mirror the other
/// Section 5 applications: a seeded fault plan, the reliability layer that
/// repairs it, and the update staging thresholds.
Em2dResult em2d_mixed(const Em2dProblem& prob, std::size_t procs, ReadMode mode,
                      net::LatencyModel latency = {}, std::uint64_t seed = 1,
                      const std::optional<net::FaultPlan>& faults = std::nullopt,
                      bool reliable = false,
                      const dsm::BatchingConfig& batching = {.max_updates = 1},
                      const std::optional<dsm::DirectoryConfig>& directory = std::nullopt,
                      const std::optional<obs::ProfilerOptions>& profile = std::nullopt);

}  // namespace mc::apps
