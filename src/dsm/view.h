// Epoch-stamped membership views (elastic membership, docs/FAULTS.md
// "Membership and views").
//
// A view is the pair (epoch, alive mask): which processes are members of
// the system right now, and a monotone counter stamping the configuration.
// The sync manager doubles as the *view manager*: it proposes view v+1 on
// a fault report / join / leave, collects acks from the surviving members
// (each ack carries the acker's applied clock, taken after flushing its
// staging buffers), and commits — revoking the departed process's locks,
// recomputing barrier membership, and assigning re-seed donors.  Nodes
// fence to a committed view: reads, awaits, and causal delivery mask out
// the dead components (common/vector_clock.h `*_masked`).
//
// Membership is encoded as a 64-bit mask, matching the sync manager's
// prev_holders_mask encoding (num_procs <= 64 is enforced at system
// construction).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace mc::dsm {

struct View {
  std::uint64_t epoch = 0;
  std::uint64_t alive_mask = 0;

  [[nodiscard]] bool is_alive(ProcId p) const {
    MC_CHECK(p < 64);
    return ((alive_mask >> p) & 1) != 0;
  }

  [[nodiscard]] std::size_t live_count() const {
    std::size_t n = 0;
    for (std::uint64_t m = alive_mask; m != 0; m &= m - 1) ++n;
    return n;
  }

  [[nodiscard]] std::vector<ProcId> members() const {
    std::vector<ProcId> out;
    for (ProcId p = 0; p < 64; ++p) {
      if (is_alive(p)) out.push_back(p);
    }
    return out;
  }

  [[nodiscard]] std::string to_string() const {
    std::string s = "epoch " + std::to_string(epoch) + " {";
    bool first = true;
    for (ProcId p = 0; p < 64; ++p) {
      if (!is_alive(p)) continue;
      if (!first) s += ",";
      s += std::to_string(p);
      first = false;
    }
    s += "}";
    return s;
  }

  friend bool operator==(const View&, const View&) = default;
};

/// Mask with the low `num_procs` bits set — the "everyone" view.
[[nodiscard]] inline std::uint64_t full_mask(std::size_t num_procs) {
  MC_CHECK(num_procs <= 64);
  return num_procs == 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << num_procs) - 1;
}

[[nodiscard]] inline std::uint64_t mask_of(const std::vector<ProcId>& procs) {
  std::uint64_t m = 0;
  for (ProcId p : procs) {
    MC_CHECK(p < 64);
    m |= std::uint64_t{1} << p;
  }
  return m;
}

[[nodiscard]] inline std::size_t popcount64(std::uint64_t m) {
  std::size_t n = 0;
  for (; m != 0; m &= m - 1) ++n;
  return n;
}

}  // namespace mc::dsm
