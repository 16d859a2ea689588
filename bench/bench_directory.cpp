// Experiment C14 — directory-based partial replication (docs/DIRECTORY.md).
//
// PR 9's ownership directory against PR 4's broadcast batching, on a
// strip-partitioned keyspace at 64 simulated processes.  Each process owns
// a stripe of variables (which the static homing maps back to it), updates
// its own stripe every round, and reads a small window from its ring
// neighbour's stripe — the paper's locality assumption: the keyspace is
// far larger than any node's working set.
//
//   full-replication — batched staging, every update frame fanned out to
//                      all P-1 peers.
//   directory        — the same staging, but each update multicast only
//                      to the variable's registered sharers; foreign
//                      reads demand-page replicas in and the LRU budget
//                      evicts cold ones.
//
// Expected shape: update fan-out drops from P-1 destinations per write to
// |sharers| (~1 here), so wire bytes collapse by roughly P/2x and wall
// time follows.  The CI acceptance gate asserts directory wins BOTH wire
// bytes and wall time at the full 64-process size.

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>

#include "bench_util.h"
#include "dsm/system.h"

using namespace mc;
using namespace mc::bench;

namespace {

struct Shape {
  std::size_t procs;
  std::size_t stripe;   // variables owned (and statically homed) per process
  std::size_t window;   // foreign variables read from the ring neighbour
  std::size_t rounds;
};

struct RunResult {
  double wall_ms = 0.0;
  MetricsSnapshot metrics;
  bool profiled = false;
  obs::ProfileReport profile;
};

RunResult run_case(const Harness& h, const Shape& s,
                   std::optional<dsm::DirectoryConfig> directory) {
  dsm::Config cfg;
  cfg.num_procs = s.procs;
  cfg.num_vars = s.procs * s.stripe;
  cfg.batching = dsm::BatchingConfig{};
  cfg.directory = directory;
  // Profile every variable (top_k = num_vars): the CI gate reads the full
  // per-variable fetch attribution to check that the boundary rows of each
  // stripe carry >= 90% of the fetch traffic (docs/PROFILING.md).
  if (h.profiling()) cfg.profile = h.profile_options(cfg.num_vars);
  dsm::MixedSystem sys(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  sys.run([&](dsm::Node& n, ProcId p) {
    const auto base = static_cast<VarId>(p * s.stripe);
    for (std::size_t r = 0; r < s.rounds; ++r) {
      // The read window walks the ring one stripe per round: the working
      // set churns, so the replica budget has cold replicas to evict.
      const auto neighbour =
          static_cast<VarId>(((p + 1 + r) % s.procs) * s.stripe);
      for (std::size_t i = 0; i < s.stripe; ++i) {
        n.write_int(base + static_cast<VarId>(i),
                    static_cast<Value>(100 * r + i));
      }
      n.barrier();
      for (std::size_t i = 0; i < s.window; ++i) {
        const Value got =
            n.read_int(neighbour + static_cast<VarId>(i), ReadMode::kPram);
        MC_CHECK(got == static_cast<Value>(100 * r + i));
      }
      n.barrier();
    }
  });
  RunResult out;
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  out.metrics = sys.metrics();
  if (h.profiling()) {
    out.profiled = true;
    out.profile = sys.profile();
  }
  return out;
}

void report(Harness& h, const std::string& name, const Shape& s,
            const RunResult& r) {
  std::printf("%-18s time=%8.2fms msgs=%-9llu bytes=%-11llu fills=%-6llu "
              "evicts=%-6llu update-bytes=%llu\n",
              name.c_str(), r.wall_ms, msgs(r.metrics), bytes(r.metrics),
              static_cast<unsigned long long>(r.metrics.get("directory.fills")),
              static_cast<unsigned long long>(
                  r.metrics.get("directory.evictions")),
              static_cast<unsigned long long>(r.metrics.get("net.bytes.update")));
  auto& row = h.add_row(name);
  row.params["variant"] = name;
  row.params["procs"] = std::to_string(s.procs);
  row.params["vars"] = std::to_string(s.procs * s.stripe);
  row.params["stripe"] = std::to_string(s.stripe);
  row.params["window"] = std::to_string(s.window);
  row.wall_ms = r.wall_ms;
  row.stats["rounds"] = static_cast<double>(s.rounds);
  row.metrics = r.metrics;
  if (r.profiled) Harness::set_profile(row, r.profile);
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("bench_directory", argc, argv);
  h.config("latency", "zero");
  h.config("fabric", "ideal");

  // Smoke shrinks the fleet, not the structure: the keyspace still dwarfs
  // the per-node working set, so the directory still pages and evicts.
  Shape s;
  s.procs = h.smoke() ? 8 : 64;
  s.stripe = 8;
  s.window = 4;
  s.rounds = h.smoke() ? 3 : 10;
  h.config("procs", std::to_string(s.procs));

  print_header("C14 — directory multicast vs full-replication broadcast "
               "(strip-partitioned keyspace, ring-neighbour working set)",
               "directory must beat full replication on BOTH wire bytes and "
               "wall time (CI acceptance gate at 64 processes)");

  const RunResult full = run_case(h, s, std::nullopt);
  report(h, "full-replication", s, full);

  dsm::DirectoryConfig dir;
  // Budget covers the neighbour window with a little slack; homed stripes
  // are pinned and never count against it.
  dir.replica_budget = s.window + 2;
  dir.fetch_frame = s.window;
  const RunResult directed = run_case(h, s, dir);
  report(h, "directory", s, directed);

  const double byte_shrink = static_cast<double>(bytes(full.metrics)) /
                             static_cast<double>(bytes(directed.metrics));
  const double speedup = full.wall_ms / directed.wall_ms;
  std::printf("\nbytes shrink: %.1fx   wall speedup: %.2fx\n", byte_shrink,
              speedup);
  return 0;
}
