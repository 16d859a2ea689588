// Section 6's timestamp-elision optimization: for PRAM-consistent programs
// (Corollary 2) updates need no vector clocks and no causal ordering.
// These tests cover correctness under the optimization, the wire savings,
// and the equivalence of the Figure 2 solver with and without it.

#include <gtest/gtest.h>

#include "gtest_compat.h"

#include <tuple>

#include "apps/equation_solver.h"
#include "dsm/system.h"
#include "history/checkers.h"

namespace mc::dsm {
namespace {

Config omit_cfg(std::size_t procs) {
  Config cfg;
  cfg.num_procs = procs;
  cfg.num_vars = 32;
  cfg.count_vectors.emplace();
  cfg.record_trace = true;
  return cfg;
}

TEST(OmitTimestamps, BasicVisibilityThroughAwait) {
  MixedSystem sys(omit_cfg(2));
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write(0, 7);
      n.write(1, 1);
    } else {
      n.await(1, 1);
      EXPECT_EQ(n.read(0, ReadMode::kPram), 7u);
    }
  });
}

TEST(OmitTimestamps, BarrierPhasesStayCoherent) {
  MixedSystem sys(omit_cfg(4));
  sys.run([](Node& n, ProcId p) {
    for (int it = 0; it < 8; ++it) {
      n.write_int(p, it * 10 + p);
      n.barrier();
      for (ProcId q = 0; q < 4; ++q) {
        EXPECT_EQ(n.read_int(q, ReadMode::kPram), it * 10 + q);
      }
      n.barrier();
    }
  });
}

TEST(OmitTimestamps, TraceStillMixedConsistent) {
  MixedSystem sys(omit_cfg(3));
  sys.run([](Node& n, ProcId p) {
    n.write_int(p, 100 + p);
    n.barrier();
    for (ProcId q = 0; q < 3; ++q) std::ignore = n.read_int(q, ReadMode::kPram);
    n.barrier();
    n.write_int(p, 200 + p);
    n.barrier();
    for (ProcId q = 0; q < 3; ++q) std::ignore = n.read_int(q, ReadMode::kPram);
  });
  const auto res = history::check_mixed_consistency(sys.collect_history());
  EXPECT_TRUE(res.ok) << res.message();
}

TEST(OmitTimestamps, LazyLocksStillWork) {
  MixedSystem sys(omit_cfg(3));
  sys.run([](Node& n, ProcId) {
    for (int i = 0; i < 10; ++i) {
      n.wlock(0);
      n.write_int(5, n.read_int(5, ReadMode::kPram) + 1);
      n.wunlock(0);
    }
  });
  Node& n0 = sys.node(0);
  n0.wlock(0);
  EXPECT_EQ(n0.read_int(5, ReadMode::kPram), 30);
  n0.wunlock(0);
}

TEST(OmitTimestamps, UpdatesShrinkOnTheWire) {
  auto traffic = [](bool omit) {
    Config cfg;
    cfg.num_procs = 4;
    cfg.num_vars = 8;
    if (omit) cfg.count_vectors.emplace();
    MixedSystem sys(cfg);
    sys.run([](Node& n, ProcId p) {
      for (int i = 0; i < 20; ++i) n.write_int(p, i);
      n.barrier();
    });
    return sys.metrics();
  };
  const auto with_ts = traffic(false);
  const auto without_ts = traffic(true);
  EXPECT_EQ(with_ts.get("net.msg.update"), without_ts.get("net.msg.update"));
  // Each elided update saves num_procs words = 32 bytes at 4 processes.
  EXPECT_GT(with_ts.get("net.bytes"),
            without_ts.get("net.bytes") + 30 * without_ts.get("net.msg.update"));
}

TEST(OmitTimestamps, Figure2SolverIdenticalWithAndWithoutTimestamps) {
  const apps::LinearSystem sys = apps::LinearSystem::random(16, 3);
  apps::SolverOptions opt;
  opt.workers = 3;
  const auto with_ts = apps::solve_barrier_pram(sys, opt);
  opt.omit_timestamps = true;
  const auto without_ts = apps::solve_barrier_pram(sys, opt);
  ASSERT_TRUE(with_ts.converged);
  ASSERT_TRUE(without_ts.converged);
  EXPECT_EQ(with_ts.iterations, without_ts.iterations);
  EXPECT_EQ(apps::max_abs_diff(with_ts.x, without_ts.x), 0.0);
  EXPECT_LT(without_ts.metrics.get("net.bytes"), with_ts.metrics.get("net.bytes"));
}

TEST(OmitTimestamps, DemandLocksAreRejected) {
  Config cfg = omit_cfg(2);
  cfg.default_lock_policy = LockPolicy::kDemand;
  cfg.demand_association[0] = 0;
  EXPECT_DEATH({ MixedSystem sys(cfg); }, "demand-driven locks are incompatible");
}

TEST(OmitTimestamps, CausalReadsAreRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        MixedSystem sys(omit_cfg(1));
        sys.node(0).read(0, ReadMode::kCausal);
      },
      "causal reads require vector timestamps");
}

}  // namespace
}  // namespace mc::dsm
