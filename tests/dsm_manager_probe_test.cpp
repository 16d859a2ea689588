// Watchdog manager probe: a manager whose mailbox hands it nothing while
// traffic waits there is reported as wedged; an idle manager (pending == 0)
// and a progressing one are not.  The watchdog owns no thread: the unit
// tests drive its passes with poll(), the system test through
// MixedSystem::run(body, timeout).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "dsm/system.h"
#include "dsm/watchdog.h"

namespace mc::dsm {
namespace {

using namespace std::chrono_literals;

Watchdog::Options fast_options() {
  Watchdog::Options o;
  o.stall_timeout = 100ms;
  o.poll = 10ms;
  return o;
}

/// Run supervision passes every poll period for `span`, or until fired.
bool poll_for(Watchdog& wd, std::chrono::milliseconds span) {
  const auto until = std::chrono::steady_clock::now() + span;
  while (std::chrono::steady_clock::now() < until && !wd.fired()) {
    std::this_thread::sleep_for(wd.poll_interval());
    wd.poll();
  }
  return wd.fired();
}

TEST(ManagerProbeTest, FrozenHeartbeatWithPendingTrafficFires) {
  Watchdog wd(fast_options());
  wd.set_manager_probe([] { return Watchdog::ManagerHealth{7, 3}; });
  ASSERT_TRUE(poll_for(wd, 3000ms));
  const Watchdog::Diagnostics d = wd.diagnostics();
  EXPECT_NE(d.reason.find("manager thread stalled"), std::string::npos) << d.reason;
  EXPECT_NE(d.reason.find("sync manager"), std::string::npos) << d.reason;
}

TEST(ManagerProbeTest, IdleManagerDoesNotFire) {
  Watchdog wd(fast_options());
  // Consumed count frozen but nothing pending: merely idle.
  wd.set_manager_probe([] { return Watchdog::ManagerHealth{42, 0}; });
  EXPECT_FALSE(poll_for(wd, 400ms));
}

TEST(ManagerProbeTest, ProgressingManagerDoesNotFire) {
  Watchdog wd(fast_options());
  std::atomic<std::uint64_t> hb{0};
  wd.set_manager_probe([&hb] { return Watchdog::ManagerHealth{hb.fetch_add(1) + 1, 5}; });
  EXPECT_FALSE(poll_for(wd, 400ms));
}

TEST(ManagerProbeTest, PendingResetClearsTheClock) {
  Watchdog wd(fast_options());
  std::atomic<std::uint64_t> polls{0};
  // Alternate pending on/off on every probe call (each pass drives the
  // toggle, so the cadence is immune to test-thread scheduling): the
  // tracker resets each time the mailbox drains, and the watchdog stays
  // quiet no matter how long the test runs.
  wd.set_manager_probe([&polls] {
    const bool pending = (polls.fetch_add(1) % 2) == 0;
    return Watchdog::ManagerHealth{9, pending ? std::size_t{1} : std::size_t{0}};
  });
  EXPECT_FALSE(poll_for(wd, 400ms));
  EXPECT_GE(polls.load(), 2u);
}

TEST(ManagerProbeTest, IdleElasticManagerHoldingAKeepaliveDeadlineIsNotStalled) {
  // Elastic mode turns keepalives on, so the manager's mailbox holds a
  // keepalive deadline for as long as the run lasts.  A body that stops
  // synchronizing for longer than the stall deadline leaves the manager
  // idle, not wedged.
  Config cfg;
  cfg.num_procs = 3;
  cfg.num_vars = 4;
  cfg.elastic = true;
  cfg.reliable = true;
  MixedSystem sys(cfg);
  const auto out = sys.run(
      [](Node& n, ProcId) {
        n.barrier();
        std::this_thread::sleep_for(1s);
        n.barrier();
      },
      300ms);
  EXPECT_FALSE(out.stalled) << out.diagnostics.reason;
}

}  // namespace
}  // namespace mc::dsm
