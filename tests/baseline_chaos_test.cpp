// Chaos for the baselines (carried ROADMAP item): the SC and hybrid
// systems run over the same lossy, duplicating, delay-spiking fabric the
// mixed system is soaked on, with the reliability layer rebuilding the
// reliable-FIFO channel underneath.  Cross-model comparisons are only fair
// when every model survives the same faults: the SC baseline must keep its
// total order (and its traces must stay serializable), and the hybrid
// baseline must keep the message-passing guarantee of its strong
// operations.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>

#include "baseline/hybrid_system.h"
#include "baseline/sc_system.h"
#include "history/serialization.h"
#include "net/fault.h"

namespace mc::baseline {
namespace {

/// Same mix as the dsm chaos suite (docs/FAULTS.md).
net::FaultPlan chaos_plan(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = 0.05;
  plan.dup_prob = 0.05;
  plan.delay_prob = 0.02;
  plan.delay_factor = 10.0;
  plan.delay_floor = std::chrono::microseconds(50);
  return plan;
}

TEST(BaselineChaos, ScStaysSequentiallyConsistentUnderFaults) {
  // A seed's drops can all land on acks or on tail messages nobody waits
  // for, so no retransmit deadline comes due before shutdown.  As in the
  // hybrid case below, correctness must hold on every attempt, and the
  // loop runs until one attempt shows both a drop and a retransmit.
  bool saw_retransmit = false;
  bool saw_drop = false;
  for (std::uint64_t attempt = 0; attempt < 10 && !(saw_drop && saw_retransmit);
       ++attempt) {
    ScConfig cfg;
    cfg.num_procs = 3;
    cfg.num_vars = 8;
    cfg.record_trace = true;
    cfg.reliable = true;
    cfg.faults = chaos_plan(211 + attempt);

    ScSystem sys(cfg);
    std::atomic<Value> seen[3];
    sys.run([&](ScNode& n, ProcId p) {
      // Enough rounds that the 5% drop rate is statistically certain to
      // fire, while the trace stays inside the SC search budget (96 ops).
      for (int r = 0; r < 8; ++r) {
        n.write(p, static_cast<Value>(100 * r + p + 1));
        n.barrier();
        (void)n.read((p + 1) % 3);
      }
      if (p < 2) n.write(3, p + 1);
      n.barrier();
      seen[p] = n.read(3);
    });
    // Total order survived the lossy channel: all replicas agree.
    EXPECT_EQ(seen[0].load(), seen[1].load()) << "attempt " << attempt;
    EXPECT_EQ(seen[1].load(), seen[2].load()) << "attempt " << attempt;

    const auto sc = history::check_sequential_consistency(sys.collect_history());
    ASSERT_FALSE(sc.exhausted_budget) << "attempt " << attempt;
    EXPECT_TRUE(sc.sequentially_consistent) << "attempt " << attempt;

    const auto m = sys.metrics();
    saw_drop = m.get("net.fault.dropped") > 0;
    saw_retransmit = m.get("net.retransmits") > 0;
  }
  // The chaos actually happened and the channel repaired real loss.
  EXPECT_TRUE(saw_drop);
  EXPECT_TRUE(saw_retransmit);
}

TEST(BaselineChaos, HybridMessagePassingHoldsUnderFaults) {
  // The payload/flag idiom the hybrid model exists for: a weak payload
  // write is flushed by the strong flag write, so a reader that spins on
  // the flag must observe the payload — faults or not.
  //
  // This run is short (a dozen-odd messages), so a given seed's drops can
  // land entirely on acks or on tail messages nobody waits for, in which
  // case no ack timeout fires before shutdown and net.retransmits stays 0.
  // Correctness must hold on every attempt; the retransmission machinery
  // only needs one seed where a drop lands mid-stream.  A retransmit alone
  // does not show that: on a loaded host an ack late by one RTO triggers
  // one with nothing dropped, so the loop runs until one attempt shows both.
  bool saw_retransmit = false;
  bool saw_drop = false;
  for (std::uint64_t attempt = 0; attempt < 10 && !(saw_drop && saw_retransmit);
       ++attempt) {
    HybridConfig cfg;
    cfg.num_procs = 2;
    cfg.num_vars = 8;
    cfg.reliable = true;
    cfg.faults = chaos_plan(223 + attempt);

    HybridSystem sys(cfg);
    std::atomic<Value> payload{~0ull};
    sys.run([&](HybridNode& n, ProcId p) {
      if (p == 0) {
        n.weak_write(0, 1234);  // payload, weak
        n.strong_write(1, 1);   // flag, strong (flushes the payload first)
      } else {
        while (n.strong_read(1) != 1) {
        }
        payload = n.weak_read(0);
      }
    });
    EXPECT_EQ(payload.load(), 1234u) << "attempt " << attempt;

    const auto m = sys.metrics();
    saw_drop = m.get("net.fault.dropped") > 0;
    saw_retransmit = m.get("net.retransmits") > 0;
  }
  EXPECT_TRUE(saw_drop);
  EXPECT_TRUE(saw_retransmit);
}

}  // namespace
}  // namespace mc::baseline
