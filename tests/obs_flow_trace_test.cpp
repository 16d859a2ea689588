// End-to-end checks of the wire-level flow instrumentation: every recorded
// flow end refers to a recorded flow start, nearly all sends get consumed
// on an ideal fabric, the ring-overwrite counter is surfaced, and no wire
// kind ever shows up as a bare number in the metrics.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>

#include "dsm/system.h"
#include "obs/tracer.h"

namespace mc {
namespace {

/// RAII tracer session so a failing test cannot leak an enabled tracer
/// into the rest of the binary.
struct TracerSession {
  TracerSession() {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().enable();
  }
  ~TracerSession() {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
  }
};

void run_workload(dsm::MixedSystem& sys) {
  sys.run([](dsm::Node& node, ProcId p) {
    for (int iter = 0; iter < 5; ++iter) {
      node.wlock(0);
      const std::int64_t v = p == 0 && iter == 0 ? 0 : node.read_int(0, ReadMode::kPram);
      node.write_int(0, v + 1);
      node.wunlock(0);
      node.write_int(1 + p, iter);
      node.barrier();
    }
  });
}

TEST(FlowTraceTest, EveryFlowEndHasAStartAndMostSendsBind) {
  TracerSession session;
  MetricsSnapshot metrics;
  {
    dsm::Config cfg;
    cfg.num_procs = 4;
    cfg.num_vars = 16;
    dsm::MixedSystem sys(cfg);
    run_workload(sys);
    metrics = sys.metrics();
    sys.shutdown();  // quiesce delivery threads before snapshotting
  }

  std::set<std::uint64_t> starts;
  std::set<std::uint64_t> ends;
  for (const obs::Tracer::Recorded& r : obs::Tracer::instance().snapshot()) {
    if (r.ev.phase == 's') starts.insert(r.ev.flow_id);
    if (r.ev.phase == 'f') ends.insert(r.ev.flow_id);
  }
  ASSERT_GT(starts.size(), 0u);

  // Round trip: an end without a start would draw an arrow from nowhere.
  for (const std::uint64_t id : ends) {
    EXPECT_TRUE(starts.count(id) != 0) << "flow end without start: " << id;
  }

  // On an ideal fabric every message is delivered; a handful may still be
  // in a mailbox when the system shuts down.
  std::size_t bound = 0;
  for (const std::uint64_t id : starts) {
    if (ends.count(id) != 0) ++bound;
  }
  EXPECT_GE(static_cast<double>(bound),
            0.95 * static_cast<double>(starts.size()))
      << bound << " of " << starts.size() << " sends bound";

  // Ring kept up with this tiny run, and the counter is surfaced.
  EXPECT_EQ(obs::Tracer::instance().dropped_events(), 0u);
  ASSERT_TRUE(metrics.values.count("obs.trace.dropped") != 0);
  EXPECT_EQ(metrics.get("obs.trace.dropped"), 0u);
}

TEST(FlowTraceTest, ManagerHeartbeatsCountDeliveredMessages) {
  dsm::Config cfg;
  cfg.num_procs = 2;
  dsm::MixedSystem sys(cfg);
  run_workload(sys);
  const MetricsSnapshot m = sys.metrics();
  // 2 procs x 5 iterations x (lock req + unlock) = 20 lock-manager messages,
  // 2 x 5 barrier arrivals = 10 barrier-manager messages.
  EXPECT_EQ(m.get("lockmgr.heartbeats"), 20u);
  EXPECT_EQ(m.get("barriermgr.heartbeats"), 10u);
}

TEST(KindNamesTest, NoNumericWireKindInMetrics) {
  dsm::Config cfg;
  cfg.num_procs = 2;
  cfg.reliable = true;  // exercises the rel_ack kind as well
  cfg.reliability.ack_every = 1;  // a standalone ack per delivery, not a timed flush
  dsm::MixedSystem sys(cfg);
  run_workload(sys);
  const MetricsSnapshot m = sys.metrics();

  const std::string prefix = "net.msg.";
  std::size_t kinds = 0;
  for (const auto& [key, value] : m.values) {
    (void)value;
    if (key.rfind(prefix, 0) != 0) continue;
    ++kinds;
    const std::string suffix = key.substr(prefix.size());
    bool all_digits = !suffix.empty();
    for (const char c : suffix) {
      if (std::isdigit(static_cast<unsigned char>(c)) == 0) all_digits = false;
    }
    EXPECT_FALSE(all_digits) << "unregistered wire kind leaked: " << key;
  }
  EXPECT_GT(kinds, 0u);
  EXPECT_GT(m.get("net.msg.rel_ack"), 0u);
}

}  // namespace
}  // namespace mc
