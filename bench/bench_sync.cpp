// Experiments C4 and C5: the Section 6 synchronization design space.
//
// C4 — eager vs lazy vs demand-driven propagation for lock/unlock: a
// migratory critical section (read-modify-write ping-pong) under each
// policy.  Expected shape: eager pays flush probes + acks on every unlock;
// lazy defers to acquire-time blocking; demand-driven stops broadcasting
// entirely and ships values only when accessed.
//
// C5 — the count-vector barrier implementation: per-barrier cost as the
// process count grows (two messages per process per barrier).

#include <cstdio>
#include <string>

#include "baseline/hybrid_system.h"
#include "baseline/sc_system.h"
#include "bench_util.h"
#include "dsm/system.h"

using namespace mc;
using namespace mc::dsm;
using namespace mc::bench;

namespace {

void lock_policy_case(Harness& h, LockPolicy policy, std::size_t procs, int rounds) {
  Config cfg;
  cfg.num_procs = procs;
  cfg.num_vars = 8;
  cfg.default_lock_policy = policy;
  if (policy == LockPolicy::kDemand) {
    for (VarId x = 0; x < 4; ++x) cfg.demand_association[x] = 0;
  }
  cfg.latency = net::LatencyModel::fast();
  if (h.profiling()) cfg.profile = h.profile_options();
  MixedSystem sys(cfg);

  h.mark();  // critical-path window starts at the timed run, not at setup
  Stopwatch clock;
  sys.run([&](Node& n, ProcId) {
    for (int i = 0; i < rounds; ++i) {
      n.wlock(0);
      // Touch a small working set inside the critical section.
      for (VarId x = 0; x < 4; ++x) {
        n.write_int(x, n.read_int(x, ReadMode::kCausal) + 1);
      }
      n.wunlock(0);
    }
  });
  const double ms = clock.elapsed_ms();
  const auto m = sys.metrics();
  std::printf("%-8s procs=%zu rounds=%d time=%8.2fms msgs=%-8llu bytes=%-10llu "
              "updates=%-6llu syncs=%-5llu fetches=%-5llu blocked=%8.2fms\n",
              to_string(policy), procs, rounds, ms, msgs(m), bytes(m),
              static_cast<unsigned long long>(m.get("net.msg.update")),
              static_cast<unsigned long long>(m.get("net.msg.sync_req")),
              static_cast<unsigned long long>(m.get("net.msg.fetch_bulk_req")),
              blocked_ms(m));
  auto& row = h.add_row(std::string("lock-") + to_string(policy));
  row.params["policy"] = to_string(policy);
  row.params["procs"] = std::to_string(procs);
  row.params["rounds"] = std::to_string(rounds);
  row.wall_ms = ms;
  row.metrics = m;
  if (h.profiling()) Harness::set_profile(row, sys.profile());
}

void barrier_case(Harness& h, std::size_t procs, int rounds) {
  Config cfg;
  cfg.num_procs = procs;
  cfg.num_vars = 4;
  cfg.latency = net::LatencyModel::fast();
  if (h.profiling()) cfg.profile = h.profile_options();
  MixedSystem sys(cfg);
  h.mark();
  Stopwatch clock;
  sys.run([&](Node& n, ProcId) {
    for (int i = 0; i < rounds; ++i) n.barrier();
  });
  const double ms = clock.elapsed_ms();
  const auto m = sys.metrics();
  std::printf("barrier  procs=%zu rounds=%d time=%8.2fms per-barrier=%6.1fus "
              "msgs=%-7llu msgs/barrier=%.1f\n",
              procs, rounds, ms, 1000.0 * ms / rounds, msgs(m),
              static_cast<double>(m.get("net.messages")) / rounds);
  auto& row = h.add_row("barrier");
  row.params["procs"] = std::to_string(procs);
  row.params["rounds"] = std::to_string(rounds);
  row.wall_ms = ms;
  row.stats["us_per_barrier"] = 1000.0 * ms / rounds;
  row.stats["msgs_per_barrier"] = static_cast<double>(m.get("net.messages")) / rounds;
  row.metrics = m;
  if (h.profiling()) Harness::set_profile(row, sys.profile());
}

/// C10: a repeated producer/consumer handoff — the paper's await primitive
/// against hybrid consistency's strong operations (Section 2's comparison)
/// and the SC baseline.  `rounds` payload+flag pairs from p0 to p1, with a
/// third process as innocent bystander paying broadcast costs.
void handoff_case(Harness& h, int rounds) {
  const auto lat = net::LatencyModel::fast();

  // Each variant's report row is appended immediately after its run so the
  // row's critical-path window covers exactly that sub-run under --trace.
  const auto emit = [&](const char* name, double ms, const MetricsSnapshot& m) {
    auto& row = h.add_row(name);
    row.params["rounds"] = std::to_string(rounds);
    row.wall_ms = ms;
    row.metrics = m;
  };

  // Mixed consistency: weak writes + await (the |->await edge carries the
  // producer's context, PRAM reads suffice afterwards).
  double mixed_ms = 0.0;
  MetricsSnapshot mixed_m;
  {
    Config cfg;
    cfg.num_procs = 3;
    cfg.num_vars = 4;
    cfg.latency = lat;
    if (h.profiling()) cfg.profile = h.profile_options();
    MixedSystem sys(cfg);
    h.mark();
    Stopwatch clock;
    // Two-way handshake (the Figure 3 pattern): awaits are exact-value, so
    // the producer must not overwrite the flag before the consumer's
    // acknowledgement.
    sys.run([&](Node& n, ProcId p) {
      for (int r = 1; r <= rounds; ++r) {
        if (p == 0) {
          n.write(0, static_cast<Value>(r * 100));
          n.write(1, static_cast<Value>(r));
          n.await(2, static_cast<Value>(r));
        } else if (p == 1) {
          n.await(1, static_cast<Value>(r));
          std::ignore = n.read(0, ReadMode::kPram);
          n.write(2, static_cast<Value>(r));
        }
      }
    });
    mixed_ms = clock.elapsed_ms();
    mixed_m = sys.metrics();
    emit("handoff-mixed-await", mixed_ms, mixed_m);
    if (h.profiling()) Harness::set_profile(h.last_row(), sys.profile());
  }

  // Hybrid consistency: weak payload + strong flag, consumer polls with
  // strong reads.
  double hybrid_ms = 0.0;
  MetricsSnapshot hybrid_m;
  {
    baseline::HybridConfig cfg;
    cfg.num_procs = 3;
    cfg.num_vars = 4;
    cfg.latency = lat;
    baseline::HybridSystem sys(cfg);
    h.mark();
    Stopwatch clock;
    sys.run([&](baseline::HybridNode& n, ProcId p) {
      for (int r = 1; r <= rounds; ++r) {
        if (p == 0) {
          n.weak_write(0, static_cast<Value>(r * 100));
          n.strong_write(1, static_cast<Value>(r));
          while (n.strong_read(2) < static_cast<Value>(r)) std::this_thread::yield();
        } else if (p == 1) {
          while (n.strong_read(1) < static_cast<Value>(r)) std::this_thread::yield();
          std::ignore = n.weak_read(0);
          n.strong_write(2, static_cast<Value>(r));
        }
      }
    });
    hybrid_ms = clock.elapsed_ms();
    hybrid_m = sys.metrics();
    emit("handoff-hybrid-strong", hybrid_ms, hybrid_m);
  }

  // SC baseline: every write through the sequencer, consumer awaits.
  double sc_ms = 0.0;
  MetricsSnapshot sc_m;
  {
    baseline::ScConfig cfg;
    cfg.num_procs = 3;
    cfg.num_vars = 4;
    cfg.latency = lat;
    baseline::ScSystem sys(cfg);
    h.mark();
    Stopwatch clock;
    sys.run([&](baseline::ScNode& n, ProcId p) {
      for (int r = 1; r <= rounds; ++r) {
        if (p == 0) {
          n.write(0, static_cast<Value>(r * 100));
          n.write(1, static_cast<Value>(r));
          n.await(2, static_cast<Value>(r));
        } else if (p == 1) {
          n.await(1, static_cast<Value>(r));
          std::ignore = n.read(0);
          n.write(2, static_cast<Value>(r));
        }
      }
    });
    sc_ms = clock.elapsed_ms();
    sc_m = sys.metrics();
    emit("handoff-sc-baseline", sc_ms, sc_m);
  }

  std::printf("mixed-await     rounds=%d time=%8.2fms msgs=%-7llu bytes=%-9llu "
              "blocked=%8.2fms\n",
              rounds, mixed_ms, msgs(mixed_m), bytes(mixed_m), blocked_ms(mixed_m));
  std::printf("hybrid-strong   rounds=%d time=%8.2fms msgs=%-7llu bytes=%-9llu "
              "blocked=%8.2fms\n",
              rounds, hybrid_ms, msgs(hybrid_m), bytes(hybrid_m),
              blocked_ms(hybrid_m, "hybrid.blocked_ns"));
  std::printf("sc-baseline     rounds=%d time=%8.2fms msgs=%-7llu bytes=%-9llu "
              "blocked=%8.2fms\n",
              rounds, sc_ms, msgs(sc_m), bytes(sc_m), blocked_ms(sc_m, "sc.blocked_ns"));
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("bench_sync", argc, argv);
  h.config("latency", "fast");

  print_header("C4 — lock propagation policies (Section 6)",
               "migratory critical sections under eager / lazy / demand-driven "
               "update propagation");
  const int lock_rounds = h.smoke() ? 8 : 40;
  const std::vector<std::size_t> lock_procs =
      h.smoke() ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4};
  for (const std::size_t procs : lock_procs) {
    lock_policy_case(h, LockPolicy::kEager, procs, lock_rounds);
    lock_policy_case(h, LockPolicy::kLazy, procs, lock_rounds);
    lock_policy_case(h, LockPolicy::kDemand, procs, lock_rounds);
    std::printf("\n");
  }

  print_header("C5 — count-vector barrier cost (Section 6)",
               "two messages per process per barrier, one manager round trip");
  const std::vector<std::size_t> barrier_procs =
      h.smoke() ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4, 8};
  for (const std::size_t procs : barrier_procs) {
    barrier_case(h, procs, h.smoke() ? 10 : 100);
  }

  print_header("C10 — explicit synchronization vs strong operations (Section 2)",
               "producer/consumer handoff: mixed's await vs hybrid consistency's "
               "strong flag vs the SC baseline");
  handoff_case(h, h.smoke() ? 5 : 50);
  return 0;
}
