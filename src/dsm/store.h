// A replicated-memory view: the per-process copy of every shared location
// together with the metadata the consistency machinery needs.
//
// Each node keeps ONE Store (see DESIGN.md §6.1): updates apply in
// vector-timestamp (causally-ready) order, and each variable behaves as a
// last-writer-wins register under a total order extending causality (see
// apply() in store.cpp).  A read's label selects which *floor* it blocks
// on before returning the copy's value, implementing Section 6's "a causal
// read can return a value only if all preceding operations have been
// performed locally; a PRAM read returns the most recent value".

#pragma once

#include <vector>

#include "common/types.h"
#include "common/vector_clock.h"
#include "dsm/wire.h"

namespace mc::dsm {

struct VarEntry {
  Value value = 0;
  WriteId last = kInitialWrite;
  /// Vector clock of the update that produced this value (for deltas, the
  /// merge of all applied updates).  Empty until first touched, and unused
  /// in timestamp-elided (count-vector) mode.
  VectorClock vc;
  /// Count-vector mode: how many updates from the writing sender this
  /// replica had applied when this value landed — the per-receiver count
  /// the Section 6 protocol synchronizes on.
  std::uint64_t arrival = 0;
  /// Writes/deltas to this location this replica has *received* (counting
  /// coalesced batch records by weight, and writes a newer value superseded
  /// — reception accounting, not value accounting).  The read-staleness
  /// monitor (dsm/staleness.h) subtracts this from the global issue counter
  /// to get the version lag of a returned value.
  std::uint64_t applied_writes = 0;
  /// Ever updated by a commutative delta.  Elastic re-mastering skips such
  /// entries: a counter's value is a *sum* of per-replica applications, so
  /// no single replica's copy is a re-seedable LWW winner (docs/FAULTS.md).
  bool delta_touched = false;
  /// View epoch the winning write was issued under (0 outside elastic
  /// mode).  Concurrent writes from different epochs are arbitrated
  /// epoch-first (see apply() in store.cpp): a crash-stopped process's
  /// partially-delivered last write is concurrent with a new-view
  /// overwrite of the same variable, and the re-seed must not resurrect
  /// it over the overwrite at replicas that already applied the newer one.
  std::uint64_t epoch = 0;

  /// A delta applied on top of the current winning write that is not in
  /// that write's causal past: `tick` is the delta's own clock component
  /// (its issuer's event count).  A later write concurrent with the delta
  /// must not erase it, so a winning write re-applies every logged delta
  /// it has not seen (see apply() in store.cpp).
  struct Delta {
    WriteId id;
    std::uint64_t tick = 0;
    Value amount = 0;
    std::uint64_t op = 0;  // kFlagIntDelta or kFlagDoubleDelta
  };
  /// Deltas layered on the winning write, in apply order; empty in
  /// count-vector mode and whenever the winning write has seen them all.
  std::vector<Delta> deltas;
  /// The winning write's id and clock while `deltas` is non-empty (vc then
  /// also merges the deltas' clocks).  An empty base_vc is the initial
  /// value, which every write beats.
  WriteId base = kInitialWrite;
  VectorClock base_vc;
};

class Store {
 public:
  Store(std::size_t num_vars, std::size_t num_procs)
      : num_procs_(num_procs), entries_(num_vars) {}

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  [[nodiscard]] const VarEntry& entry(VarId x) const {
    MC_CHECK(x < entries_.size());
    return entries_[x];
  }

  /// Apply an update (write or delta) with the given flags.  Writes make
  /// the entry a last-writer-wins register under a total order extending
  /// causality (see store.cpp), so the PRAM and causal views converge on
  /// the same winner regardless of apply order; deltas subtract and merge
  /// metadata, and a winning write re-applies the deltas it is concurrent
  /// with, so the value does not depend on whether a write or a concurrent
  /// delta landed first.  `arrival` is the count-vector-mode receive index (0 for
  /// local writes and VC mode).  `force` bypasses the write ordering —
  /// only for demand-policy migratory writes, whose clocks are not ticked.
  /// `weight` is how many original updates this record stands for (> 1 for
  /// coalesced batch records) — it advances the entry's applied_writes.
  /// `epoch` is the view epoch the write was issued under (0 outside
  /// elastic mode); concurrent writes are arbitrated epoch-first.
  void apply(VarId x, Value value, std::uint64_t flags, WriteId id, const VectorClock& vc,
             std::uint64_t arrival = 0, bool force = false, std::uint64_t weight = 1,
             std::uint64_t epoch = 0);

  /// Install an out-of-band value (demand-driven fetch response, or a
  /// joiner's elastic state-transfer snapshot — the latter propagates the
  /// donor's delta_touched flag so later re-seeds keep skipping counters).
  void install(VarId x, Value value, WriteId id, const VectorClock& vc,
               bool delta_touched = false, std::uint64_t epoch = 0);

  /// Reset the staleness baseline after a fetch installed the owner's
  /// up-to-date copy (see VarEntry::applied_writes).
  void set_applied_writes(VarId x, std::uint64_t n) {
    MC_CHECK(x < entries_.size());
    entries_[x].applied_writes = n;
  }

  /// Drop the replica (directory-mode eviction): the entry resets to its
  /// initial state and a later read must demand-page a fresh copy in.
  void evict(VarId x) {
    MC_CHECK(x < entries_.size());
    entries_[x] = VarEntry{};
  }

 private:
  std::size_t num_procs_;
  std::vector<VarEntry> entries_;
};

}  // namespace mc::dsm
