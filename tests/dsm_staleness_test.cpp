// Read-staleness monitor (Config::track_staleness): per-read version-lag
// and vector-clock-distance histograms, split by read mode.
//
// Staleness here is measured against the *issued-write* registry: how far
// the value a read returned trails the freshest write any process had
// already issued.  Unsynchronized PRAM polling of a streaming writer shows
// real lag (updates are still in flight when the reads happen), while
// causal reads issued under a proper synchronization protocol — the
// message-passing litmus, where the |->await edge makes the payload write
// a causal dependency — are never stale: the causally-gated store cannot
// show the reader the signal without the payload, and the handshake keeps
// the writer from racing ahead.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "dsm/system.h"

namespace mc {
namespace {

TEST(StalenessTest, PramReadsObserveLagCausalReadsDoNot) {
  dsm::Config cfg;
  cfg.num_procs = 3;
  cfg.num_vars = 8;
  cfg.track_staleness = true;
  cfg.latency.base = std::chrono::microseconds(10);
  cfg.latency.jitter = std::chrono::milliseconds(2);
  cfg.seed = 7;
  dsm::MixedSystem sys(cfg);

  constexpr VarId kX = 0;
  constexpr VarId kY = 1;
  constexpr VarId kZ = 2;
  constexpr int kIters = 25;
  constexpr int kBurst = 40;

  sys.run([](dsm::Node& node, ProcId p) {
    // Phase A — unsynchronized PRAM polling: p0 streams writes to z while
    // p1 polls it with PRAM reads.  The issued counter runs ahead of p1's
    // applied state whenever an update is still in flight (jitter spreads
    // arrivals over ~2ms), so the polls record nonzero version lag.
    if (p == 0) {
      for (int i = 1; i <= kBurst; ++i) {
        node.write_int(kZ, i);
        std::this_thread::sleep_for(std::chrono::microseconds(40));
      }
    } else if (p == 1) {
      while (node.read_int(kZ, ReadMode::kPram) < kBurst) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    node.barrier();

    // Phase B — the message-passing litmus: p0 writes x, p2 observes x and
    // writes y, p1 observes y and causal-reads x.  The await edge to p2's
    // write makes p0's x-write a causal dependency of that read
    // (transitivity through p2's await), and the per-iteration barrier
    // keeps the writer from issuing ahead — so every causal read is fresh.
    for (int i = 1; i <= kIters; ++i) {
      if (p == 0) {
        node.write_int(kX, i);
      } else if (p == 2) {
        node.await_int(kX, i);
        node.write_int(kY, i);
      } else {
        node.await_int(kY, i);
        const std::int64_t causal = node.read_int(kX, ReadMode::kCausal);
        EXPECT_EQ(causal, i);
      }
      node.barrier();
    }
  });

  const MetricsSnapshot m = sys.metrics();

  // PRAM reads (explicit and await spins) saw real version lag...
  ASSERT_GT(m.get("read.staleness_versions.pram.count"), 0u);
  EXPECT_GE(m.get("read.staleness_versions.pram.max"), 1u);
  ASSERT_GT(m.get("read.staleness_vc.pram.count"), 0u);
  EXPECT_GE(m.get("read.staleness_vc.pram.max"), 1u);

  // ...while every causal read waited out its dependencies and was fresh.
  ASSERT_EQ(m.get("read.staleness_versions.causal.count"),
            static_cast<std::uint64_t>(kIters));
  EXPECT_EQ(m.get("read.staleness_versions.causal.max"), 0u);
  ASSERT_EQ(m.get("read.staleness_vc.causal.count"),
            static_cast<std::uint64_t>(kIters));
  EXPECT_EQ(m.get("read.staleness_vc.causal.max"), 0u);
}

TEST(StalenessTest, DisabledByDefaultEmitsNoKeys) {
  dsm::Config cfg;
  cfg.num_procs = 2;
  dsm::MixedSystem sys(cfg);
  sys.run([](dsm::Node& node, ProcId p) {
    if (p == 0) node.write_int(0, 1);
    node.barrier();
    node.read_int(0, ReadMode::kPram);
  });
  const MetricsSnapshot m = sys.metrics();
  for (const auto& [key, value] : m.values) {
    (void)value;
    EXPECT_TRUE(key.rfind("read.staleness", 0) != 0) << key;
  }
}

TEST(StalenessTest, CountModeTracksVersionsOnly) {
  // Timestamp-elided systems have no vector clocks to measure distance
  // with, but the issued-write counters still work.
  dsm::Config cfg;
  cfg.num_procs = 2;
  cfg.track_staleness = true;
  cfg.count_vectors.emplace();
  dsm::MixedSystem sys(cfg);
  sys.run([](dsm::Node& node, ProcId p) {
    for (int i = 1; i <= 10; ++i) {
      if (p == 0) node.write_int(0, i);
      node.await_int(0, i);
      node.read_int(0, ReadMode::kPram);
      node.barrier();
    }
  });
  const MetricsSnapshot m = sys.metrics();
  EXPECT_GT(m.get("read.staleness_versions.pram.count"), 0u);
  EXPECT_EQ(m.get("read.staleness_vc.pram.count"), 0u);
  EXPECT_EQ(m.get("read.staleness_vc.causal.count"), 0u);
}

}  // namespace
}  // namespace mc
