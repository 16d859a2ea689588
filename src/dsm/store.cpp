#include "dsm/store.h"

#include <tuple>

namespace mc::dsm {

namespace {
Value subtract(Value from, Value amount, std::uint64_t op) {
  return op == kFlagIntDelta ? value_of(int_of(from) - int_of(amount))
                             : value_of(double_of(from) - double_of(amount));
}
}  // namespace

void Store::apply(VarId x, Value value, std::uint64_t flags, WriteId id,
                  const VectorClock& vc, std::uint64_t arrival, bool force,
                  std::uint64_t weight, std::uint64_t epoch) {
  MC_CHECK(x < entries_.size());
  VarEntry& e = entries_[x];
  // Reception accounting for the staleness monitor: count every update that
  // reached this replica, including ones the LWW order rejects below — a
  // superseded write is not *missing*, it is absorbed.
  e.applied_writes += weight;
  // Each variable is a last-writer-wins register under a total order that
  // extends causality: a causally newer write always replaces the entry,
  // a causally older (or duplicate) one never does, and *concurrent*
  // writes are arbitrated by the deterministic key
  // (vc.total(), proc, seq) — strict dominance implies a strictly larger
  // component sum, so the key order is a genuine extension.  Because the
  // winner depends only on the *set* of writes applied, not their arrival
  // order, the PRAM view (applies at arrival) and the causal view
  // (applies at causal readiness) converge on the same value even when
  // re-stamped retransmissions (docs/FAULTS.md) scramble cross-sender
  // order; otherwise one process's two views could disagree on the winner
  // and its trace would have no single serialization.  On the ideal
  // fabric the mailbox's global deliver_at order makes this a no-op.
  // Deltas are exempt (they commute and every copy must be counted); a
  // write is ordered against the winning *write*, and when it wins it
  // re-applies the deltas it has not seen, so a write concurrent with an
  // already-applied delta neither loses to it nor erases it.  `force`
  // exempts demand-policy migratory writes, whose clocks are deliberately
  // not ticked — those are write-lock-ordered, so no concurrent write to
  // the variable can exist.
  const std::uint64_t op = flags & kFlagOpMask;
  // The winning write the LWW order compares against: the entry itself,
  // or the recorded base while deltas are layered on top of it.
  const bool layered = !e.deltas.empty();
  const VectorClock& base_vc = layered ? e.base_vc : e.vc;
  const WriteId base = layered ? e.base : e.last;
  if (!force && op == kFlagWrite && !vc.empty() && !base_vc.empty()) {
    switch (vc.compare(base_vc)) {
      case ClockOrder::kBefore:
      case ClockOrder::kEqual:
        return;
      case ClockOrder::kAfter:
        break;
      case ClockOrder::kConcurrent: {
        // Epoch-first: a crash-stopped process's last write can be
        // concurrent with a new-view overwrite of the same variable (the
        // overwriter's PRAM reads never raised its dependency clock), and
        // the re-seed that carries the dead write must lose to the
        // overwrite at every replica regardless of arrival order —
        // otherwise a replica that already applied the newer write would
        // regress when the transfer record lands (a PRAM staleness
        // violation).  Within one epoch the deterministic key is as
        // before.
        const auto key = [](std::uint64_t ep, const VectorClock& c, WriteId w) {
          return std::tuple(ep, c.total(), w.proc, w.seq);
        };
        if (key(epoch, vc, id) < key(e.epoch, base_vc, base)) return;
        break;
      }
    }
  }
  // Each applied update records its own receive index, paired with
  // e.last's sender (the floor machinery raises per-sender counts).
  e.arrival = arrival;
  if (op == kFlagWrite) {
    e.value = value;
    e.epoch = epoch;
    // Keep the deltas this write has not seen (a delta is in the write's
    // causal past iff the write's clock covers the delta's own tick) and
    // re-apply them on top, in their original order.
    if (force || vc.empty()) {
      e.deltas.clear();
    } else {
      std::erase_if(e.deltas, [&](const VarEntry::Delta& d) {
        return d.tick <= vc[d.id.proc];
      });
    }
    if (e.deltas.empty()) {
      e.vc = vc;
      e.last = id;
      e.base_vc = VectorClock();
      return;
    }
    for (const VarEntry::Delta& d : e.deltas) e.value = subtract(e.value, d.amount, d.op);
    e.base = id;
    e.base_vc = vc;
    e.vc.merge(vc);
    e.last = e.deltas.back().id;
    return;
  }
  MC_CHECK_MSG(op == kFlagIntDelta || op == kFlagDoubleDelta, "unknown update flags");
  e.value = subtract(e.value, value, op);
  e.delta_touched = true;
  if (!vc.empty()) {
    if (!layered) {
      e.base = e.last;
      e.base_vc = e.vc;
    }
    e.deltas.push_back(VarEntry::Delta{id, vc[id.proc], value, op});
    if (e.vc.empty()) e.vc = VectorClock(num_procs_);
    e.vc.merge(vc);
  }
  e.last = id;
}

void Store::install(VarId x, Value value, WriteId id, const VectorClock& vc,
                    bool delta_touched, std::uint64_t epoch) {
  MC_CHECK(x < entries_.size());
  VarEntry& e = entries_[x];
  e.value = value;
  e.last = id;
  e.vc = vc;
  e.delta_touched = e.delta_touched || delta_touched;
  e.epoch = epoch;
  e.deltas.clear();
  e.base_vc = VectorClock();
}

}  // namespace mc::dsm
