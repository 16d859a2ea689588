// Experiments F1, C6 and C13: the formal-model tooling.
//
// F1 — Figure 1's synchronization orders: derive |->lock and |->bar edges
// for a lock/barrier history of the figure's shape and report edge counts.
//
// C6 — checker throughput: relation construction, restricted relations,
// and the full mixed-consistency check on random histories of growing
// size, with the search and graph backends side by side.  This bounds the
// history sizes the BitMatrix pipeline can verify.
//
// C13 — streaming graph checker at trace scale: feed a generated
// million-op trace through IncrementalChecker one operation at a time and
// check it to a verdict (docs/CHECKING.md §8).  The O(n^2)-bit BitMatrix
// pipeline is infeasible at this size (~10^12 bits of relation state); the
// graph checker's clocks and sparse edges keep it linear.  A second row
// injects a stale read mid-trace and must converge to a violation.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "history/causality.h"
#include "history/checkers.h"
#include "history/incremental_checker.h"

using namespace mc;
using namespace mc::bench;
using namespace mc::history;

namespace {

/// A well-formed random history: per-process chains of writes and reads
/// (reads resolve to the latest write of a random process at generation
/// time — consistent by construction), with barrier rounds interspersed.
History random_history(std::size_t procs, std::size_t ops_per_proc, std::uint64_t seed) {
  History h(procs);
  Rng rng(seed);
  std::vector<std::vector<std::pair<WriteId, Value>>> writes(procs);
  std::uint32_t epoch = 0;
  for (std::size_t step = 0; step < ops_per_proc; ++step) {
    if (step % 16 == 15) {
      for (ProcId p = 0; p < procs; ++p) h.barrier(p, epoch);
      ++epoch;
      continue;
    }
    for (ProcId p = 0; p < procs; ++p) {
      const auto x = static_cast<VarId>(rng.below(8));
      if (rng.chance(0.5)) {
        h.write(p, x, (std::uint64_t{p} << 32) | step);
        writes[p].push_back({h.last_write_of(p), (std::uint64_t{p} << 32) | step});
      } else if (!writes[p].empty()) {
        // Read own latest write: always valid under both disciplines.
        const auto& [id, v] = writes[p].back();
        const Operation& w_op = h.op(0);
        (void)w_op;
        Operation op;
        op.kind = OpKind::kRead;
        op.proc = p;
        op.var = h.op(static_cast<OpRef>(h.size() - 1)).var;  // placeholder, fixed below
        op.value = v;
        op.mode = rng.chance(0.5) ? ReadMode::kPram : ReadMode::kCausal;
        op.write_id = id;
        // Locate the var the write targeted.
        for (OpRef r = static_cast<OpRef>(h.size()); r-- > 0;) {
          if (h.op(r).write_id == id &&
              (h.op(r).kind == OpKind::kWrite || h.op(r).kind == OpKind::kDelta)) {
            op.var = h.op(r).var;
            break;
          }
        }
        h.add(op);
      }
    }
  }
  return h;
}

void report(Harness& h, const char* name, std::size_t ops_per_proc, std::size_t history_ops,
            const MicroResult& r) {
  std::printf("%-24s ops/proc=%-4zu history=%-5zu ops  %10.1f ns/op  "
              "(%llu iters in %.1fms)\n",
              name, ops_per_proc, history_ops, r.ns_per_op,
              static_cast<unsigned long long>(r.iterations), r.total_ms);
  auto& row = h.add_row(name);
  row.params["ops_per_proc"] = std::to_string(ops_per_proc);
  row.params["history_ops"] = std::to_string(history_ops);
  row.wall_ms = r.total_ms;
  row.stats["ns_per_op"] = r.ns_per_op;
  row.stats["iterations"] = static_cast<double>(r.iterations);
}

void checker_throughput(Harness& h) {
  const std::vector<std::size_t> sizes =
      h.smoke() ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 64, 128};
  const double min_ms = h.smoke() ? 5.0 : 50.0;
  std::printf("\n=== C6 — checker throughput (4 procs, random histories) ===\n");
  for (const std::size_t ops : sizes) {
    const auto hist = random_history(4, ops, 11);
    report(h, "build-relations", ops, hist.size(),
           measure_op([&] { do_not_optimize(build_relations(hist)); }, min_ms));
  }
  for (const std::size_t ops : sizes) {
    const auto hist = random_history(4, ops, 13);
    const auto rel = build_relations(hist);
    report(h, "restrict-pram", ops, hist.size(),
           measure_op([&] { do_not_optimize(restrict_pram(hist, *rel, 1)); }, min_ms));
  }
  for (const std::size_t ops : sizes) {
    const auto hist = random_history(4, ops, 17);
    report(h, "check-mixed-search", ops, hist.size(),
           measure_op(
               [&] {
                 do_not_optimize(
                     check_mixed_consistency(hist, CheckerBackend::kSearch));
               },
               min_ms));
    report(h, "check-mixed-graph", ops, hist.size(),
           measure_op(
               [&] {
                 do_not_optimize(check_mixed_consistency(hist, CheckerBackend::kGraph));
               },
               min_ms));
  }
}

/// C13 trace generator: feed a synthetic shared-memory trace straight into
/// the streaming checker.  Shape: `procs` processes over 8 shared plain
/// locations plus one private location per process.
/// Each barrier epoch designates one writer per shared location (rotating
/// with the epoch); everyone else reads the owner's final write of the
/// *previous* epoch, which the barrier made causally visible, so the trace
/// is consistent by construction.  Round-robin emission across processes is
/// a causal linear extension.  With `inject`, one read mid-trace resolves
/// to the owner write from two epochs back instead — stale, because a
/// newer causally-visible write intervenes.
struct StreamVerdict {
  GraphVerdict verdict;
  MetricsSnapshot metrics;
  std::size_t ops = 0;
  double wall_ms = 0.0;
};

StreamVerdict stream_check(std::size_t procs, std::size_t target_ops, bool inject,
                           std::uint64_t seed) {
  constexpr std::size_t kVars = 8;
  constexpr std::size_t kRoundsPerEpoch = 64;

  IncrementalChecker chk(procs);
  Rng rng(seed);
  std::vector<SeqNo> seq(procs, 0);

  struct VarView {
    WriteId visible;       // owner's final write of the last completed epoch
    Value visible_val = 0;
    WriteId stale;         // ... of the epoch before that
    Value stale_val = 0;
    WriteId cur;           // owner's latest write in the current epoch
    Value cur_val = 0;
  };
  std::vector<VarView> view(kVars);

  std::uint32_t epoch = 0;
  bool injected = false;
  Stopwatch sw;

  const auto feed = [&](const Operation& op) {
    if (!chk.feed(op)) {
      std::fprintf(stderr, "stream-check: feed failed: %s\n",
                   chk.failed() ? "structural error" : "unknown");
      std::exit(1);
    }
  };

  while (chk.num_ops() < target_ops) {
    // One trace span per barrier epoch fed (--trace).  The stream is never
    // pruned, so feed and finalize are the only phases.
    obs::TraceSpan epoch_span("bench.feed", "bench", {"epoch", epoch});
    for (std::size_t round = 0; round < kRoundsPerEpoch; ++round) {
      for (ProcId p = 0; p < procs; ++p) {
        const auto x = static_cast<VarId>(rng.below(kVars));
        const ProcId owner = static_cast<ProcId>((x + epoch) % procs);
        Operation op;
        op.proc = p;
        if (p == owner) {
          op.kind = OpKind::kWrite;
          op.var = x;
          op.value = (std::uint64_t{epoch} << 16) | (std::uint64_t{x} << 8) | round;
          op.write_id = WriteId{p, ++seq[p]};
          view[x].cur = op.write_id;
          view[x].cur_val = op.value;
        } else if (view[x].visible.valid()) {
          op.kind = OpKind::kRead;
          op.var = x;
          op.mode = rng.chance(0.5) ? ReadMode::kPram : ReadMode::kCausal;
          if (inject && !injected && epoch >= 3 && view[x].stale.valid()) {
            op.write_id = view[x].stale;
            op.value = view[x].stale_val;
            injected = true;
          } else {
            op.write_id = view[x].visible;
            op.value = view[x].visible_val;
          }
        } else {
          // Nothing readable yet (first epochs): write the private location.
          op.kind = OpKind::kWrite;
          op.var = static_cast<VarId>(kVars + p);
          op.value = round;
          op.write_id = WriteId{p, ++seq[p]};
        }
        feed(op);
      }
    }
    for (ProcId p = 0; p < procs; ++p) {
      Operation b;
      b.kind = OpKind::kBarrier;
      b.proc = p;
      b.barrier = 0;
      b.barrier_epoch = epoch;
      feed(b);
    }
    for (auto& vv : view) {
      if (vv.cur.valid()) {
        vv.stale = vv.visible;
        vv.stale_val = vv.visible_val;
        vv.visible = vv.cur;
        vv.visible_val = vv.cur_val;
        vv.cur = WriteId{};
      }
    }
    ++epoch;
  }

  StreamVerdict out;
  out.ops = chk.num_ops();
  {
    obs::TraceSpan span("bench.finalize", "bench", {"ops", out.ops});
    out.verdict = chk.finalize();
  }
  out.wall_ms = sw.elapsed_ms();
  out.metrics = chk.metrics();
  return out;
}

void streaming_check(Harness& h) {
  const std::size_t target = h.smoke() ? 50'000 : 1'200'000;
  std::printf("\n=== C13 — streaming graph checker (4 procs, %zu-op traces) ===\n",
              target);

  for (const bool inject : {false, true}) {
    const StreamVerdict r = stream_check(4, target, inject, inject ? 23 : 19);
    const double ops_per_sec = static_cast<double>(r.ops) / (r.wall_ms / 1e3);
    const bool expected =
        inject ? (!r.verdict.mixed.ok &&
                  r.verdict.mixed.message().find("stale") != std::string::npos)
               : r.verdict.ok();
    std::printf("%-24s ops=%-8zu %8.1fms  %12.0f ops/sec  verdict=%s%s\n",
                inject ? "stream-check-injected" : "stream-check-clean", r.ops,
                r.wall_ms, ops_per_sec, r.verdict.ok() ? "ok" : "violation",
                expected ? "" : "  ** UNEXPECTED **");
    if (!expected) {
      std::fprintf(stderr, "stream-check: unexpected verdict (%s)\n",
                   r.verdict.well_formed ? r.verdict.mixed.message().c_str()
                                         : r.verdict.error.c_str());
      std::exit(1);
    }
    auto& row = h.add_row(inject ? "stream-check-injected" : "stream-check-clean");
    row.params["procs"] = "4";
    row.params["target_ops"] = std::to_string(target);
    row.params["injected"] = inject ? "true" : "false";
    row.wall_ms = r.wall_ms;
    row.stats["history_ops"] = static_cast<double>(r.ops);
    row.stats["ops_per_sec"] = ops_per_sec;
    row.stats["verdict_ok"] = r.verdict.ok() ? 1.0 : 0.0;
    row.metrics = r.metrics;
  }
}

/// F1: construct the Figure 1 shape — a write episode, two concurrent
/// reader episodes... (readers share one), another write episode, around a
/// barrier — and report the derived synchronization-order edges.
void figure1_table(Harness& harness) {
  History h(3);
  h.wlock(0, 0, 1);
  h.wunlock(0, 0, 1);
  h.rlock(1, 0, 2);
  h.rlock(2, 0, 2);
  h.runlock(1, 0, 2);
  h.runlock(2, 0, 2);
  h.wlock(0, 0, 3);
  h.wunlock(0, 0, 3);
  for (ProcId p = 0; p < 3; ++p) h.barrier(p, 0);
  h.write(0, 0, 42);
  const auto rel = build_relations(h);
  std::printf("\n=== F1 — Figure 1 synchronization orders ===\n");
  std::printf("history: %zu ops; |->lock edges=%zu |->bar edges=%zu causality edges=%zu\n",
              h.size(), rel->sync_lock.edge_count(), rel->sync_bar.edge_count(),
              rel->causality.edge_count());
  std::printf("reduced |->lock edges=%zu (the PRAM order keeps only direct "
              "episode-to-episode dependencies)\n",
              rel->sync_lock.reduced().edge_count());
  auto& row = harness.add_row("figure1-sync-orders");
  row.stats["history_ops"] = static_cast<double>(h.size());
  row.stats["lock_edges"] = static_cast<double>(rel->sync_lock.edge_count());
  row.stats["bar_edges"] = static_cast<double>(rel->sync_bar.edge_count());
  row.stats["causality_edges"] = static_cast<double>(rel->causality.edge_count());
  row.stats["reduced_lock_edges"] =
      static_cast<double>(rel->sync_lock.reduced().edge_count());
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("bench_history", argc, argv);
  h.config("procs", "4");

  checker_throughput(h);
  streaming_check(h);
  figure1_table(h);
  return 0;
}
