// Read-staleness monitor (docs/TRACING.md): a registry, shared by every
// process of one MixedSystem, of the latest write anywhere per variable.
// Writers register each update at issue time; readers compare what they
// actually returned against it, yielding the first direct, quantitative
// picture of what each consistency mode trades away:
//
//   read.staleness_versions — how many globally issued writes to the
//       variable the returned value had not yet absorbed (version lag);
//   read.staleness_vc — the vector-clock distance (sum of component
//       shortfalls) between the returned entry's timestamp and the freshest
//       write timestamp known anywhere.
//
// Both are recorded per read, split by PRAM vs causal mode, and surfaced as
// `read.staleness_versions.{pram,causal}` / `read.staleness_vc.{pram,causal}`
// histogram summaries in MixedSystem::metrics().  This is measurement
// machinery, not protocol state: it lives outside the simulated fabric (a
// real deployment would sample it from a side channel) and is only
// maintained when Config::track_staleness is set.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "common/vector_clock.h"

namespace mc::dsm {

class StalenessTable {
 public:
  StalenessTable(std::size_t num_vars, std::size_t num_procs)
      : issued_(num_vars), latest_(num_vars, VectorClock(num_procs)) {}

  StalenessTable(const StalenessTable&) = delete;
  StalenessTable& operator=(const StalenessTable&) = delete;

  /// Register one issued write (or delta) to x.  `vc` is the writer's stamp;
  /// empty in count-vector mode (Config::count_vectors), which tracks
  /// version lag only.
  void on_write(VarId x, const VectorClock& vc) {
    if (x >= issued_.size()) return;
    issued_[x].v.fetch_add(1, std::memory_order_relaxed);
    if (!vc.empty()) {
      std::scoped_lock lk(mu_);
      latest_[x].merge(vc);
    }
  }

  /// Writes issued to x anywhere so far.
  [[nodiscard]] std::uint64_t issued(VarId x) const {
    return x < issued_.size() ? issued_[x].v.load(std::memory_order_relaxed) : 0;
  }

  /// Sum over processes of how far `seen` (the returned entry's timestamp;
  /// empty means "never absorbed a stamped write") trails the freshest
  /// stamp known for x.
  [[nodiscard]] std::uint64_t vc_distance(VarId x, const VectorClock& seen) const {
    if (x >= latest_.size()) return 0;
    std::scoped_lock lk(mu_);
    const VectorClock& latest = latest_[x];
    std::uint64_t d = 0;
    for (ProcId p = 0; p < latest.size(); ++p) {
      const std::uint64_t have = seen.empty() ? 0 : seen[p];
      if (latest[p] > have) d += latest[p] - have;
    }
    return d;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::vector<Slot> issued_;
  mutable std::mutex mu_;
  std::vector<VectorClock> latest_;
};

}  // namespace mc::dsm
