// Vector clocks, the causality metadata of the Section 6 implementation.
//
// Each process maintains a vector timestamp that counts, per process, how
// many write operations it causally depends on.  Update messages carry the
// writer's timestamp; a receiver may apply an update to its *causal* view
// only once the update is causally ready (see `ready_after`).

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace mc {

/// Partial-order comparison outcomes for two vector clocks.
enum class ClockOrder : std::uint8_t { kEqual, kBefore, kAfter, kConcurrent };

class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(std::size_t n) : c_(n, 0) {}
  VectorClock(std::initializer_list<std::uint64_t> init) : c_(init) {}

  [[nodiscard]] std::size_t size() const { return c_.size(); }
  [[nodiscard]] bool empty() const { return c_.empty(); }

  [[nodiscard]] std::uint64_t operator[](ProcId p) const {
    MC_CHECK(p < c_.size());
    return c_[p];
  }

  /// Record one more local event of process `p` (a write in our protocol).
  void tick(ProcId p) {
    MC_CHECK(p < c_.size());
    ++c_[p];
  }

  void set(ProcId p, std::uint64_t v) {
    MC_CHECK(p < c_.size());
    c_[p] = v;
  }

  /// Overwrite every component, reusing the clock's storage when it fits.
  void assign(std::span<const std::uint64_t> c) { c_.assign(c.begin(), c.end()); }

  /// Component-wise maximum: the causal join used when a message's
  /// dependencies are absorbed into the local clock.
  void merge(const VectorClock& other);

  /// Compare under the standard vector-clock partial order.
  [[nodiscard]] ClockOrder compare(const VectorClock& other) const;

  [[nodiscard]] bool happens_before(const VectorClock& other) const {
    return compare(other) == ClockOrder::kBefore;
  }
  [[nodiscard]] bool concurrent_with(const VectorClock& other) const {
    return compare(other) == ClockOrder::kConcurrent;
  }

  /// Causal-delivery readiness test: an update written by `writer` carrying
  /// timestamp `*this` (the clock *after* the write ticked the writer's
  /// component) may be applied at a replica whose causal view has applied
  /// clock `applied` iff
  ///   (a) it is the next write of `writer`:  (*this)[writer] == applied[writer] + 1
  ///   (b) all other dependencies are in:     (*this)[k] <= applied[k], k != writer
  /// With `allow_gap`, condition (a) relaxes to (*this)[writer] >
  /// applied[writer]: a multi-record update frame (dsm/batch.h) advances
  /// the writer's component by its total record weight, and frames still
  /// arrive FIFO per channel, so "strictly newer" is the right test.
  [[nodiscard]] bool ready_after(const VectorClock& applied, ProcId writer,
                                 bool allow_gap = false) const;

  /// True when every component of *this is >= the corresponding component
  /// of `other` (the "applied clock has reached the floor" test).
  [[nodiscard]] bool dominates(const VectorClock& other) const;

  /// `dominates`, restricted to the components whose bit is set in
  /// `alive_mask`.  Elastic membership (dsm/view.h) fences waits to the
  /// live view: a dependency on a crashed process that can never be
  /// satisfied is waived instead of wedging the reader.  Components at or
  /// beyond bit 64 are always checked (membership masks cap at 64 procs).
  [[nodiscard]] bool dominates_masked(const VectorClock& other,
                                      std::uint64_t alive_mask) const {
    MC_CHECK(c_.size() == other.c_.size());
    for (std::size_t k = 0; k < c_.size(); ++k) {
      if (k < 64 && ((alive_mask >> k) & 1) == 0) continue;
      if (c_[k] < other.c_[k]) return false;
    }
    return true;
  }

  /// `ready_after`, restricted to the live view: dependency components of
  /// crashed processes are waived (their missing updates will never arrive;
  /// re-mastering re-seeds surviving state instead).  The writer's own
  /// FIFO condition is never waived — a dead writer's queue is discarded
  /// wholesale, not drained.
  [[nodiscard]] bool ready_after_masked(const VectorClock& applied,
                                        ProcId writer, bool allow_gap,
                                        std::uint64_t alive_mask) const {
    MC_CHECK(c_.size() == applied.c_.size());
    MC_CHECK(writer < c_.size());
    if (allow_gap ? c_[writer] <= applied.c_[writer]
                  : c_[writer] != applied.c_[writer] + 1) {
      return false;
    }
    for (std::size_t k = 0; k < c_.size(); ++k) {
      if (k == writer) continue;
      if (k < 64 && ((alive_mask >> k) & 1) == 0) continue;
      if (c_[k] > applied.c_[k]) return false;
    }
    return true;
  }

  /// Raise component p to at least v.
  void raise(ProcId p, std::uint64_t v) {
    MC_CHECK(p < c_.size());
    if (c_[p] < v) c_[p] = v;
  }

  /// Sum of all components — a convenient total-progress measure.
  [[nodiscard]] std::uint64_t total() const;

  [[nodiscard]] std::span<const std::uint64_t> components() const { return c_; }

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const VectorClock&, const VectorClock&) = default;

 private:
  std::vector<std::uint64_t> c_;
};

}  // namespace mc
