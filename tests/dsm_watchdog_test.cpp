// The stall/deadlock watchdog (dsm/watchdog.h) through MixedSystem's
// timeout-guarded run overload: a manager partitioned from a process must
// produce a stall report instead of a hang, a classic lock-order inversion must be
// reported as a deadlock cycle, and a healthy run must come back clean.

#include "dsm/watchdog.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "dsm/system.h"

namespace mc::dsm {
namespace {

using namespace std::chrono_literals;

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

TEST(Watchdog, CleanRunReportsNoStall) {
  Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 2;
  MixedSystem sys(cfg);
  const auto out = sys.run(
      [](Node& n, ProcId p) {
        n.write_int(p, static_cast<std::int64_t>(p) + 1);
        n.barrier();
        n.await_int(1 - p, static_cast<std::int64_t>(1 - p) + 1);
      },
      2s);
  EXPECT_FALSE(out.stalled);
  EXPECT_FALSE(out.diagnostics.fired);
}

TEST(Watchdog, PartitionedBarrierManagerTripsStallNotHang) {
  Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 1;
  // Endpoint layout: processes 0..1, the sync manager 2.  Severing p0 from
  // the manager (no reliability layer to repair it) makes every barrier()
  // wait forever; p1 takes a lock first, so the lock table has an entry.
  net::FaultPlan plan;
  net::FaultPlan::Partition part;
  part.group_a = {0};
  part.group_b = {2};
  part.from_send = 0;
  part.until_send = ~0ull;
  plan.partitions.push_back(part);
  cfg.faults = plan;

  MixedSystem sys(cfg);
  const auto out = sys.run(
      [](Node& n, ProcId p) {
        if (p == 1) n.wlock(0);
        n.barrier();
      },
      300ms);
  ASSERT_TRUE(out.stalled);
  EXPECT_TRUE(contains(out.diagnostics.reason, "stall")) << out.diagnostics.reason;
  EXPECT_FALSE(out.diagnostics.stalled_waits.empty());
  // The fabric dump is present (one entry per endpoint: 2 procs + the
  // manager), even if the partitioned channels are empty.
  EXPECT_EQ(out.diagnostics.in_flight.size(), 3u);
  // The manager saw p1 only: the open barrier instance names the missing
  // p0, and the lock table names p1's tenure.
  ASSERT_EQ(out.diagnostics.barriers.size(), 1u);
  EXPECT_TRUE(contains(out.diagnostics.barriers[0], "missing=[p0]"))
      << out.diagnostics.barriers[0];
  ASSERT_EQ(out.diagnostics.locks.size(), 1u);
  EXPECT_TRUE(contains(out.diagnostics.locks[0], "holders=[p1]"))
      << out.diagnostics.locks[0];
}

TEST(Watchdog, LockOrderInversionReportsDeadlockCycle) {
  Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 2;
  MixedSystem sys(cfg);
  // p0 takes lock 0, p1 takes lock 1; each signals through a flag and then
  // requests the other's lock once both hold theirs — a guaranteed cycle,
  // no timing luck involved.
  const auto out = sys.run(
      [](Node& n, ProcId p) {
        const LockId mine = p;
        const LockId theirs = 1 - p;
        n.wlock(mine);
        n.write_int(static_cast<VarId>(p), 1);
        n.await_int(static_cast<VarId>(1 - p), 1);
        n.wlock(theirs);  // unreachable grant
        n.wunlock(theirs);
        n.wunlock(mine);
      },
      5s);
  ASSERT_TRUE(out.stalled);
  EXPECT_TRUE(contains(out.diagnostics.reason, "deadlock")) << out.diagnostics.reason;
  EXPECT_FALSE(out.diagnostics.deadlock_cycle.empty());
  EXPECT_FALSE(out.diagnostics.locks.empty());
}

}  // namespace
}  // namespace mc::dsm
