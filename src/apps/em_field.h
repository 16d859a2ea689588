// Section 5.2: computation of electromagnetic fields — alternating E-field
// and H-field update phases over a spatial grid, strip-partitioned across
// processes, with barriers between phases (Figure 4).
//
// We use the classic 1-D staggered Yee scheme:
//   E[i] += cE * (H[i] - H[i-1])      (phase 1, reads H)
//   H[i] += cH * (E[i+1] - E[i])      (phase 2, reads E)
// Each process owns a contiguous strip and needs the adjoining nodes of its
// neighbours.  Updates made in a phase must be visible in subsequent phases
// — the program is PRAM-consistent (Corollary 2), so PRAM reads suffice.
//
// Two sharing disciplines are provided, mirroring the paper's Split-C
// "ghost copies" remark: kFullGrid keeps every node in DSM (the system does
// all the work), kGhost shares only the strip-boundary nodes through DSM
// and keeps the interior in process-local memory (the hand-optimized
// pattern whose bookkeeping the paper argues PRAM makes unnecessary).

#pragma once

#include <vector>

#include "baseline/sc_system.h"
#include "common/stats.h"
#include "dsm/config.h"

namespace mc::apps {

struct EmProblem {
  std::size_t m = 64;       ///< grid nodes per field
  std::size_t steps = 16;   ///< E/H phase pairs
  double c_e = 0.45;
  double c_h = 0.45;

  /// Initial E profile: a raised-cosine pulse centered in the grid.
  [[nodiscard]] std::vector<double> initial_e() const;
};

/// Fields after a simulation: E then H, concatenated.
struct EmResult {
  std::vector<double> e;
  std::vector<double> h;
  double elapsed_ms = 0.0;
  MetricsSnapshot metrics;
};

enum class EmSharing { kFullGrid, kGhost };

/// Sequential reference (identical arithmetic and update order).
EmResult em_reference(const EmProblem& prob);

/// Mixed-consistency run (Figure 4): barriers between phases, reads under
/// the given label.  With `pattern_optimized` (ghost sharing + PRAM reads
/// only) the Section 6 access-pattern optimizations kick in: update
/// timestamps are elided and each boundary value is multicast only to the
/// single neighbour that reads it.
EmResult em_mixed(const EmProblem& prob, std::size_t procs, ReadMode mode,
                  EmSharing sharing, net::LatencyModel latency = {},
                  std::uint64_t seed = 1, bool pattern_optimized = false,
                  const std::optional<net::FaultPlan>& faults = std::nullopt,
                  bool reliable = false,
                  const dsm::BatchingConfig& batching = {.max_updates = 1},
                  const std::optional<dsm::DirectoryConfig>& directory = std::nullopt);

/// The same algorithm on the sequentially consistent baseline.
EmResult em_sc(const EmProblem& prob, std::size_t procs,
               net::LatencyModel latency = {}, std::uint64_t seed = 1);

}  // namespace mc::apps
