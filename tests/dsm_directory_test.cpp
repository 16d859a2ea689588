// Directory-based partial replication (Config::directory; docs/DIRECTORY.md).
//
// Protocol-level coverage: demand-paging on first read, sharer-multicast
// instead of broadcast, eviction by whole fill frames (least recently
// used first) under the replica budget with deregistration and re-fetch
// freshness, the owner pin (eviction never drops the last copy), delta
// write-allocation, writer registration and the writer-scoped fill
// fence, read-floor soundness on freshly paged-in replicas across
// barriers and locks, and the directory.* / net.bytes.* metrics surface.  App-level bitwise equivalence lives in
// apps_directory_test.cpp; chaos and elastic interplay in chaos_test.cpp
// and the elastic sections below.

#include <gtest/gtest.h>

#include "gtest_compat.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "dsm/batch.h"
#include "dsm/system.h"
#include "history/checkers.h"
#include "obs/monitor.h"

namespace mc::dsm {
namespace {

using namespace std::chrono_literals;

/// A staging window only the mandatory flush points can close within test
/// lifetime (same idiom as dsm_batching_test.cpp): any update that arrives
/// did so because a synchronization action shipped it.
BatchingConfig sync_only_batching() {
  BatchingConfig b;
  b.max_updates = 1 << 20;
  b.max_bytes = std::size_t{1} << 30;
  b.max_delay = 1h;
  return b;
}

Config dir_config(std::size_t procs, std::size_t vars, std::size_t budget = 0,
                  std::size_t fetch_frame = 16) {
  Config cfg;
  cfg.num_procs = procs;
  cfg.num_vars = vars;
  cfg.batching = sync_only_batching();
  DirectoryConfig dir;
  dir.replica_budget = budget;
  dir.fetch_frame = fetch_frame;
  cfg.directory = dir;
  return cfg;
}

/// The static home striping MixedSystem uses (min(x / ceil(V/P), P-1)).
ProcId home_of(VarId x, std::size_t vars, std::size_t procs) {
  const std::size_t per = (vars + procs - 1) / procs;
  const std::size_t h = x / per;
  return static_cast<ProcId>(h < procs - 1 ? h : procs - 1);
}

// ----------------------------------------------------------------------
// Demand paging
// ----------------------------------------------------------------------

TEST(Directory, DemandPagesOnFirstRead) {
  // 8 vars over 2 procs: vars 0..3 homed at p0, 4..7 at p1.
  MixedSystem sys(dir_config(2, 8));
  ASSERT_EQ(home_of(5, 8, 2), 1);
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write_int(5, 42);  // homed at p1: ships to the home
      n.barrier();
      n.barrier();
    } else {
      n.barrier();
      // Home copy, pinned: no fill needed.
      EXPECT_EQ(n.read_int(5, ReadMode::kPram), 42);
      n.barrier();
    }
  });
  const MetricsSnapshot snap = sys.metrics();
  EXPECT_EQ(snap.values.at("directory.fills"), 0u);
}

TEST(Directory, NonHomeReaderFillsOnce) {
  MixedSystem sys(dir_config(2, 8, /*budget=*/0, /*fetch_frame=*/1));
  sys.run([](Node& n, ProcId p) {
    if (p == 1) {
      n.write_int(4, 7);  // p1's own homed var
      n.barrier();
      n.barrier();
    } else {
      n.barrier();
      // First read demand-pages the replica in; repeats hit the cache.
      EXPECT_EQ(n.read_int(4, ReadMode::kPram), 7);
      EXPECT_EQ(n.read_int(4, ReadMode::kPram), 7);
      EXPECT_EQ(n.read_int(4, ReadMode::kCausal), 7);
      n.barrier();
    }
  });
  const MetricsSnapshot snap = sys.metrics();
  EXPECT_EQ(snap.values.at("directory.fills"), 1u);
  EXPECT_GE(snap.values.at("directory.sharer_adds"), 1u);
  // The fill round flowed over the new frame kinds, and per-kind byte
  // attribution saw them.
  EXPECT_GE(snap.values.at("net.msg.fetch_bulk_req"), 1u);
  EXPECT_GE(snap.values.at("net.msg.fetch_bulk_resp"), 1u);
  EXPECT_GT(snap.values.at("net.bytes.fetch_bulk_req"), 0u);
  EXPECT_GT(snap.values.at("net.bytes.fetch_bulk_resp"), 0u);
}

TEST(Directory, FillSeesWriteOrderedBeforeReadFloor) {
  // The ack-fence argument, as a litmus: p0 stages a huge batch (only
  // mandatory flushes ship it), writes x, arrives at a barrier.  p1 leaves
  // the barrier and demand-pages x for its FIRST read — the fill snapshot
  // plus the resolved-frontier gate must deliver the fresh value even
  // though p1 never applied p0's broadcast (it was never a sharer).
  MixedSystem sys(dir_config(3, 9));  // vars 0..2 p0, 3..5 p1, 6..8 p2
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write_int(0, 1234);  // own homed var: no traffic needed
      n.barrier();
      n.barrier();
    } else {
      n.barrier();
      EXPECT_EQ(n.read_int(0, ReadMode::kPram), 1234);
      EXPECT_EQ(n.read_int(0, ReadMode::kCausal), 1234);
      n.barrier();
    }
  });
}

TEST(Directory, SharersReceiveSubsequentWritesInPlace) {
  MixedSystem sys(dir_config(2, 8));
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write_int(2, 1);
      n.barrier();  // p1 fills var 2 after this
      n.barrier();
      n.write_int(2, 2);  // p1 is now a registered sharer: direct multicast
      n.barrier();
      n.barrier();
    } else {
      n.barrier();
      EXPECT_EQ(n.read_int(2, ReadMode::kPram), 1);
      n.barrier();
      n.barrier();
      EXPECT_EQ(n.read_int(2, ReadMode::kPram), 2);
      n.barrier();
    }
  });
  // The second write travelled as a normal batch to the registered sharer:
  // exactly one fill in the whole run.
  EXPECT_EQ(sys.metrics().values.at("directory.fills"), 1u);
}

// ----------------------------------------------------------------------
// Eviction
// ----------------------------------------------------------------------

TEST(Directory, EvictsColdReplicaAndRefetchesFresh) {
  // Budget 1 at each node: reading var 1 evicts the var-0 replica; a later
  // read of var 0 must re-fetch and see the write that landed in between.
  MixedSystem sys(dir_config(2, 8, /*budget=*/1, /*fetch_frame=*/1));
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write_int(0, 10);
      n.write_int(1, 11);
      n.barrier();
      n.barrier();
      n.write_int(0, 99);  // p1 just deregistered from var 0
      n.barrier();
      n.barrier();
    } else {
      n.barrier();
      EXPECT_EQ(n.read_int(0, ReadMode::kPram), 10);  // fill var 0
      EXPECT_EQ(n.read_int(1, ReadMode::kPram), 11);  // fill var 1, evict var 0
      n.barrier();
      n.barrier();
      // Stale replica is gone; the re-fetch must deliver the new value.
      EXPECT_EQ(n.read_int(0, ReadMode::kPram), 99);
      n.barrier();
    }
  });
  const MetricsSnapshot snap = sys.metrics();
  EXPECT_GE(snap.values.at("directory.evictions"), 1u);
  EXPECT_GE(snap.values.at("net.msg.dir_unregister"), 1u);
  EXPECT_GE(snap.values.at("directory.fills"), 3u);
}

TEST(Directory, HomePinNeverEvicted) {
  // p0 cycles through every foreign replica under budget 1; its own homed
  // variables never leave its store (the owner pin), so the system-wide
  // last copy survives arbitrary cache pressure.
  MixedSystem sys(dir_config(2, 8, /*budget=*/1, /*fetch_frame=*/1));
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      for (VarId x = 0; x < 4; ++x) n.write_int(x, 100 + x);
      n.barrier();
      n.barrier();
      // Thrash the budget with p1's vars; own vars must stay readable
      // without fills.
      for (VarId x = 4; x < 8; ++x) (void)n.read_int(x, ReadMode::kPram);
      for (VarId x = 0; x < 4; ++x) {
        EXPECT_EQ(n.read_int(x, ReadMode::kPram), 100 + x);
      }
      n.barrier();
      n.barrier();
    } else {
      for (VarId x = 4; x < 8; ++x) n.write_int(x, 200 + x);
      n.barrier();
      n.barrier();
      n.barrier();
      // p0's homed vars are still live at their home after the thrash.
      for (VarId x = 0; x < 4; ++x) {
        EXPECT_EQ(n.read_int(x, ReadMode::kPram), 100 + x);
      }
      n.barrier();
    }
  });
  // p0's four foreign reads each filled (budget 1, frame 1): four fills,
  // at least three evictions on p0.  Its own vars contributed none.
  const MetricsSnapshot snap = sys.metrics();
  EXPECT_GE(snap.values.at("directory.evictions"), 3u);
}

TEST(Directory, PrefetchCappedByBudget) {
  // fetch_frame 16 but budget 2: a miss must not page in a frame larger
  // than the cache, or the install would evict the faulting variable.
  MixedSystem sys(dir_config(2, 16, /*budget=*/2, /*fetch_frame=*/16));
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      for (VarId x = 0; x < 8; ++x) n.write_int(x, 10 + x);
      n.barrier();
      n.barrier();
    } else {
      n.barrier();
      for (VarId x = 0; x < 8; ++x) {
        EXPECT_EQ(n.read_int(x, ReadMode::kPram), 10 + x);
      }
      n.barrier();
    }
  });
}

// Frame eviction: 32 variables over 2 processes, so p0 homes 0..15; p1
// reads them with fetch_frame 4 and a budget of two frames.  A miss on x
// pages in x plus the lowest uncached same-home variables.

/// p0 writes 100 + x to each of its variables; p1 runs `reader` after the
/// barrier.  Returns the metrics.
template <typename Reader>
MetricsSnapshot run_frame_reader(Reader reader) {
  MixedSystem sys(dir_config(2, 32, /*budget=*/8, /*fetch_frame=*/4));
  sys.run([&](Node& n, ProcId p) {
    if (p == 0) {
      for (VarId x = 0; x < 16; ++x) n.write_int(x, 100 + x);
      n.barrier();
      n.barrier();
    } else {
      n.barrier();
      reader(n);
      n.barrier();
    }
  });
  return sys.metrics();
}

/// Reads x and returns how many fills the read caused.
std::uint64_t fills_for_read(Node& n, VarId x, std::int64_t expect) {
  const std::uint64_t before = n.stats().dir_fills.get();
  EXPECT_EQ(n.read_int(x, ReadMode::kPram), expect) << "var " << x;
  return n.stats().dir_fills.get() - before;
}

TEST(Directory, RecentlyReadMemberKeepsItsWholeFrameResident) {
  const MetricsSnapshot snap = run_frame_reader([](Node& n) {
    EXPECT_EQ(fills_for_read(n, 0, 100), 1u);  // frame {0,1,2,3}
    EXPECT_EQ(fills_for_read(n, 4, 104), 1u);  // frame {4,5,6,7}
    EXPECT_EQ(fills_for_read(n, 0, 100), 0u);  // the first frame is hotter
    EXPECT_EQ(fills_for_read(n, 8, 108), 1u);  // evicts {4,5,6,7} whole
    // Per-variable LRU would have evicted 1, 2 and 3 here.
    for (VarId x = 1; x < 4; ++x) EXPECT_EQ(fills_for_read(n, x, 100 + x), 0u);
    EXPECT_EQ(fills_for_read(n, 5, 105), 1u);  // evicts {8,9,10,11}
  });
  EXPECT_EQ(snap.get("directory.fills"), 4u);
  EXPECT_EQ(snap.get("directory.evictions"), 8u);
  EXPECT_EQ(snap.get("directory.evicted_frames"), 2u);
  EXPECT_EQ(snap.get("net.msg.dir_unregister"), 2u);
}

TEST(Directory, DeltaTouchedMemberOfEvictedFrameStaysResident) {
  const MetricsSnapshot snap = run_frame_reader([](Node& n) {
    EXPECT_EQ(fills_for_read(n, 0, 100), 1u);  // frame {0,1,2,3}
    n.dec_int(1, 5);                           // pins var 1
    EXPECT_EQ(fills_for_read(n, 4, 104), 1u);  // frame {4,5,6,7}
    EXPECT_EQ(fills_for_read(n, 8, 108), 1u);  // evicts 0, 2 and 3 only
    EXPECT_EQ(fills_for_read(n, 1, 101 - 5), 0u);
    EXPECT_EQ(fills_for_read(n, 0, 100), 1u);
  });
  EXPECT_EQ(snap.get("directory.evicted_frames"), 2u);
}

TEST(Directory, RefilledVariableIsEvictedWithItsNewFrame) {
  run_frame_reader([](Node& n) {
    EXPECT_EQ(fills_for_read(n, 0, 100), 1u);  // {0,1,2,3}
    EXPECT_EQ(fills_for_read(n, 4, 104), 1u);  // {4,5,6,7}
    EXPECT_EQ(fills_for_read(n, 8, 108), 1u);  // {8..11}; evicts {0,1,2,3}
    EXPECT_EQ(fills_for_read(n, 12, 112), 1u);  // {12,0,1,2}; evicts {4..7}
    EXPECT_EQ(fills_for_read(n, 3, 103), 1u);  // {3,4,5,6}; evicts {8..11}
    // Var 0 now belongs to {12,0,1,2}, the colder frame, and goes with it
    // although its first frame's member 3 was just read.
    EXPECT_EQ(fills_for_read(n, 7, 107), 1u);  // {7,8,9,10}; evicts {12,0,1,2}
    EXPECT_EQ(fills_for_read(n, 3, 103), 0u);
    EXPECT_EQ(fills_for_read(n, 0, 100), 1u);
  });
}

TEST(Directory, FrameOfOneIsPerVariableLru) {
  MixedSystem sys(dir_config(2, 8, /*budget=*/2, /*fetch_frame=*/1));
  sys.run([](Node& n, ProcId p) {
    if (p == 1) {
      for (VarId x = 4; x < 8; ++x) n.write_int(x, 100 + x);
      n.barrier();
      n.barrier();
      return;
    }
    n.barrier();
    // (var, fills) along a trace where the least recently used variable
    // is always the victim: 5, 6, 4 and 6 again are evicted.
    const std::pair<VarId, std::uint64_t> trace[] = {
        {4, 1}, {5, 1}, {4, 0}, {6, 1}, {4, 0}, {5, 1}, {6, 1}, {5, 0}, {4, 1}};
    for (const auto& [x, fills] : trace) EXPECT_EQ(fills_for_read(n, x, 100 + x), fills);
    n.barrier();
  });
  EXPECT_EQ(sys.metrics().get("directory.evictions"), 4u);
}

// ----------------------------------------------------------------------
// Deltas
// ----------------------------------------------------------------------

TEST(Directory, DeltaWriteAllocatesAndPins) {
  // Counter homed at p0; p1 decrements it without ever reading first — the
  // delta write-allocates (fills, then applies locally and ships), and the
  // delta-touched replica is pinned against eviction so its local
  // applications are never lost.
  MixedSystem sys(dir_config(2, 8, /*budget=*/1, /*fetch_frame=*/1));
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write_int(0, 100);
      n.barrier();
      n.barrier();
      n.barrier();
      EXPECT_EQ(n.read_int(0, ReadMode::kCausal), 100 - 30);
    } else {
      n.barrier();
      n.dec_int(0, 30);
      // Thrash the budget: the delta-touched counter must survive.
      (void)n.read_int(1, ReadMode::kPram);
      (void)n.read_int(2, ReadMode::kPram);
      n.barrier();
      EXPECT_EQ(n.read_int(0, ReadMode::kPram), 100 - 30);
      n.barrier();
    }
  });
}

TEST(Directory, ConcurrentDeltasFromBothSidesSum) {
  MixedSystem sys(dir_config(2, 8));
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write_int(4, 1000);  // homed at p1
      n.barrier();
      n.dec_int(4, 7);
      n.barrier();
      EXPECT_EQ(n.read_int(4, ReadMode::kCausal), 1000 - 7 - 5);
    } else {
      n.barrier();
      n.dec_int(4, 5);
      n.barrier();
      EXPECT_EQ(n.read_int(4, ReadMode::kCausal), 1000 - 7 - 5);
    }
  });
}

// ----------------------------------------------------------------------
// Synchronization floors on paged-in replicas
// ----------------------------------------------------------------------

TEST(Directory, LockProtectedTransferThroughFill) {
  // Message-passing litmus under a write lock: the grant's count floor
  // must gate p1's first (demand-paged) read of both variables.
  MixedSystem sys(dir_config(2, 8));
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.wlock(0);
      n.write_int(1, 41);
      n.write_int(2, 42);
      n.wunlock(0);
      n.barrier();
    } else {
      for (;;) {
        n.wlock(0);
        const bool ready = n.read_int(2, ReadMode::kPram) == 42;
        if (ready) {
          EXPECT_EQ(n.read_int(1, ReadMode::kPram), 41);
          n.wunlock(0);
          break;
        }
        n.wunlock(0);
      }
      n.barrier();
    }
  });
}

TEST(Directory, LockSerializedIncrementsNeverLoseUpdates) {
  // Read-modify-write under one write lock from every node, with a replica
  // budget of 1 forcing constant evict/re-fetch churn on the shared
  // counter.  Any stale read under the lock (a fill or cached copy missing
  // the previous holder's write) loses an increment and breaks the total.
  constexpr int kIters = 12;
  MixedSystem sys(dir_config(3, 9, /*budget=*/1, /*fetch_frame=*/1));
  sys.run([](Node& n, ProcId p) {
    for (int i = 0; i < kIters; ++i) {
      n.wlock(0);
      n.write_int(0, n.read_int(0, ReadMode::kCausal) + 1);
      n.wunlock(0);
      // Thrash the budget between critical sections so the counter's
      // replica is usually evicted when the lock comes back.
      (void)n.read_int(static_cast<VarId>(3 * ((p + 1) % 3) + 1),
                       ReadMode::kPram);
    }
    n.barrier();
    EXPECT_EQ(n.read_int(0, ReadMode::kCausal), 3 * kIters);
    n.barrier();
  });
}

TEST(Directory, AwaitResolvesThroughFill) {
  // Figure 3's handshake shape: p1 awaits a flag it never cached, then
  // causally reads data written before the flag.
  MixedSystem sys(dir_config(2, 8));
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write_int(1, 2024);   // data, homed at p0
      n.write_int(0, 1);      // flag, homed at p0
      n.barrier();
    } else {
      n.await_int(0, 1, ReadMode::kCausal);
      EXPECT_EQ(n.read_int(1, ReadMode::kCausal), 2024);
      n.barrier();
    }
  });
}

TEST(Directory, CausalChainAcrossThreeNodes) {
  // A -> B -> C causality where C pages both variables in cold: p2's
  // causal read of y=1 must imply visibility of x=1 (written before y
  // at another process).
  MixedSystem sys(dir_config(3, 9));
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write_int(0, 1);  // x, homed at p0
      n.barrier();
    } else if (p == 1) {
      n.await_int(0, 1, ReadMode::kCausal);
      n.write_int(3, 1);  // y, homed at p1, causally after x=1
      n.barrier();
    } else {
      n.await_int(3, 1, ReadMode::kCausal);
      EXPECT_EQ(n.read_int(0, ReadMode::kCausal), 1);
      n.barrier();
    }
  });
}

// ----------------------------------------------------------------------
// Writer-scoped rows: fills fence only a variable's registered writers
// ----------------------------------------------------------------------

TEST(Directory, StripShapeSendsNoDirectoryControlTraffic) {
  // Each process writes only its homed stripe and reads a window of a
  // rotating neighbour's: every variable's only writer is its home, so
  // fills fence nobody, evictions refresh no mirror, and the fill reply's
  // flush stamp resolves the home's frontier without a ping.
  constexpr std::size_t kProcs = 4, kStripe = 8, kWindow = 4, kRounds = 6;
  MixedSystem sys(dir_config(kProcs, kProcs * kStripe, /*budget=*/kWindow + 2,
                             /*fetch_frame=*/kWindow));
  sys.run([&](Node& n, ProcId p) {
    const auto base = static_cast<VarId>(p * kStripe);
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (std::size_t i = 0; i < kStripe; ++i) {
        n.write_int(base + static_cast<VarId>(i), static_cast<std::int64_t>(100 * r + i));
      }
      n.barrier();
      const auto nb = static_cast<VarId>(((p + 1 + r % (kProcs - 1)) % kProcs) * kStripe);
      for (std::size_t i = 0; i < kWindow; ++i) {
        EXPECT_EQ(n.read_int(nb + static_cast<VarId>(i), ReadMode::kPram),
                  static_cast<std::int64_t>(100 * r + i));
      }
      n.barrier();
    }
  });
  const MetricsSnapshot snap = sys.metrics();
  EXPECT_GT(snap.get("directory.fills"), 0u);
  EXPECT_GT(snap.get("directory.evictions"), 0u);
  EXPECT_GT(snap.get("net.msg.dir_unregister"), 0u);
  // Each fill after a process's first evicts the previous window whole:
  // one deregistration per fill, no leftovers to drop later.
  EXPECT_EQ(snap.get("net.msg.dir_unregister"), snap.get("directory.fills") - kProcs);
  EXPECT_EQ(snap.get("directory.evicted_frames"), snap.get("directory.fills") - kProcs);
  for (const char* key : {"net.msg.dir_sharer_add", "net.msg.dir_ack",
                          "net.msg.dir_sharer_del", "net.msg.frontier_req"}) {
    EXPECT_EQ(snap.get(key), 0u) << key;
  }
  EXPECT_EQ(snap.get("directory.writer_registrations"), 0u);
}

TEST(Directory, NonHomeWriterRegistersOnceAndReachesLaterSharers) {
  // p0 writes var 3 (homed at p1): one registration, however many writes.
  // p2 then fills var 3, which fences p0 and so hands it p2's bit; p0's
  // next write must reach p2 directly, with no barrier in between.
  Config cfg = dir_config(3, 9);  // vars 0..2 p0, 3..5 p1, 6..8 p2
  cfg.batching = BatchingConfig{};  // the flusher ships staged writes
  MixedSystem sys(cfg);
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write_int(3, 1);
      n.write_int(3, 2);
      n.barrier();
      n.await_int(6, 1);  // p2 has filled var 3
      n.write_int(3, 42);
      n.barrier();
    } else if (p == 1) {
      n.barrier();
      n.barrier();
    } else {
      n.barrier();
      EXPECT_EQ(n.read_int(3, ReadMode::kPram), 2);
      n.write_int(6, 1);
      const auto deadline = std::chrono::steady_clock::now() + 5s;
      while (n.read_int(3, ReadMode::kPram) != 42 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(200us);
      }
      EXPECT_EQ(n.read_int(3, ReadMode::kPram), 42);
      n.barrier();
    }
  });
  EXPECT_EQ(sys.metrics().get("directory.writer_registrations"), 1u);
}

/// Process 0 registers as a writer of var 3 (homed at p1).  Then, for each
/// reader in turn, it stages a write that no synchronization action
/// flushes, and the reader fills var 3 for the first time: the fill must
/// fence p0, whose flush puts the staged write in the snapshot.
void expect_fills_fence_staged_writes(const std::vector<ProcId>& readers) {
  MixedSystem sys(dir_config(4, 12));  // vars 3..5 homed at p1
  std::atomic<std::size_t> step{0};    // 2k+1: write k staged, 2k+2: read k done
  const auto wait_for_step = [&](std::size_t s) {
    while (step.load() < s) std::this_thread::sleep_for(200us);
  };
  sys.run([&](Node& n, ProcId p) {
    if (p == 0) n.write_int(3, 1);  // registers; the barrier flushes it
    n.barrier();
    for (std::size_t k = 0; k < readers.size(); ++k) {
      const auto v = static_cast<std::int64_t>(100 + k);
      if (p == 0) {
        n.write_int(3, v);
        step = 2 * k + 1;
      } else if (p == readers[k]) {
        wait_for_step(2 * k + 1);
        EXPECT_EQ(n.read_int(3, ReadMode::kPram), v) << "reader " << p;
        step = 2 * k + 2;
      }
      wait_for_step(2 * k + 2);
    }
    n.barrier();
  });
  EXPECT_EQ(sys.metrics().get("directory.fills"), readers.size());
}

TEST(Directory, FillFencesRegisteredWriterWithStagedWrite) {
  expect_fills_fence_staged_writes({2});
}

TEST(Directory, SecondFillByAnotherReaderStillFencesWriters) {
  // p0 already knows p2's bit when it stages the second write; p3's fill
  // must fence p0 again all the same.
  expect_fills_fence_staged_writes({2, 3});
}

/// Poll `ep`'s mailbox until a message arrives or `limit` passes.
std::optional<net::Message> recv_within(net::Fabric& f, net::Endpoint ep,
                                        std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  for (;;) {
    if (auto m = f.mailbox(ep).try_recv()) return m;
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(200us);
  }
}

TEST(Directory, WriterRegisteringMidFillGetsRequesterBit) {
  // The home of var 2, p1, is a real node; the test plays p0 (a registered
  // writer), p2 (a reader filling var 2) and p3 (a writer registering while
  // that fill waits for p0's fence ack).
  constexpr VarId kVar = 2;
  constexpr std::uint64_t kToken = 9;
  const Config cfg = dir_config(4, 8);  // vars 2, 3 homed at p1
  net::Fabric f(5);
  Node home(cfg, 1, f, /*mgr=*/4);
  // Shut the fabric down before the node joins its threads, on every exit.
  struct ShutdownOnExit {
    net::Fabric& f;
    ~ShutdownOnExit() { f.shutdown(); }
  } shutdown_on_exit{f};
  home.write_int(kVar, 5);  // own variable, no sharers yet: stays local
  const auto request = [&](ProcId from, bool write_fault) {
    net::Message req;
    req.src = from;
    req.dst = 1;
    req.kind = kFetchBulkReq;
    req.a = 1;
    req.b = write_fault ? 0 : kToken;
    req.d = write_fault ? 1 : 0;
    req.payload = {kVar};
    EXPECT_TRUE(f.mailbox(1).push(std::move(req)));
  };

  request(0, /*write_fault=*/true);
  auto reply = recv_within(f, 0, 5s);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, kDirSharerSync);
  EXPECT_EQ(reply->payload, (std::vector<std::uint64_t>{kVar, 0}));

  request(2, /*write_fault=*/false);
  auto add = recv_within(f, 0, 5s);
  ASSERT_TRUE(add.has_value()) << "the fill must fence the registered writer";
  EXPECT_EQ(add->kind, kDirSharerAdd);
  EXPECT_EQ(add->c, 2u);

  request(3, /*write_fault=*/true);
  reply = recv_within(f, 3, 5s);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, kDirSharerSync);
  EXPECT_EQ(reply->payload, (std::vector<std::uint64_t>{kVar, std::uint64_t{1} << 2}));
  EXPECT_FALSE(f.mailbox(2).try_recv().has_value()) << "fill answered before the fence";

  net::Message ack;
  ack.src = 0;
  ack.dst = 1;
  ack.kind = kDirAck;
  ack.a = kToken;
  ack.b = 2;
  ASSERT_TRUE(f.mailbox(1).push(std::move(ack)));
  auto resp = recv_within(f, 2, 5s);
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->kind, kFetchBulkResp);
  EXPECT_EQ(resp->b, 1u);  // the home's flush stamp: its one clocked write
  ASSERT_FALSE(resp->payload.empty());
  EXPECT_EQ(resp->payload.back(), kToken);
  resp->payload.pop_back();
  const std::vector<BatchRecord> recs = decode_frame(*resp, 4);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].var, kVar);
  EXPECT_EQ(int_of(recs[0].value), 5);
  EXPECT_EQ(home.stats().dir_writer_registrations.get(), 2u);
}

// ----------------------------------------------------------------------
// Frontier stamps beside demand locks
// ----------------------------------------------------------------------
//
// A demand-lock write takes a write id but never ticks its writer's clock,
// while readers compare the directory frontier stamps (flushed frames,
// kFrontierResp) against clock components.  These tests drive real nodes
// one at a time: process 0 on one fabric, whose frames the test captures,
// and process 1 on a second fabric, where the test relays them.  Every
// other endpoint is played by the test.

constexpr VarId kDemandVar = 0;                // homed at p0, lock-migratory
constexpr VarId kX = 3, kY = 4, kZ = 5;        // homed at p1
constexpr LockId kDemandLock = 1;

Config demand_dir_config() {
  Config cfg = dir_config(3, 9);
  cfg.demand_association[kDemandVar] = kDemandLock;
  cfg.lock_policy_override[kDemandLock] = LockPolicy::kDemand;
  return cfg;
}

constexpr net::Endpoint kMgrEp = 3;

/// Process 0's first write to a variable homed at process 1 registers it as
/// a writer there; the test, playing process 1, answers with an empty row.
void write_registered(net::Fabric& f, Node& p0, VarId x, std::int64_t v) {
  auto writer = std::async(std::launch::async, [&] { p0.write_int(x, v); });
  auto req = f.mailbox(1).recv();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->kind, kFetchBulkReq);
  EXPECT_EQ(req->d, 1u);  // write fault
  ASSERT_EQ(req->payload.size(), 1u);
  EXPECT_EQ(req->payload[0], x);
  net::Message rows;
  rows.src = 1;
  rows.dst = 0;
  rows.kind = kDirSharerSync;
  rows.a = 1;
  rows.payload = {x, 0};
  ASSERT_TRUE(f.mailbox(0).push(std::move(rows)));
  ASSERT_EQ(writer.wait_for(10s), std::future_status::ready);
}

/// Process 0 writes x, then three demand-lock writes, then y (staged, not
/// flushed).  Returns the frame the unlock flushed to process 1.
net::Message writes_behind_demand_lock(net::Fabric& f, Node& p0) {
  write_registered(f, p0, kX, 1);  // clock component 1
  net::Message grant;
  grant.src = kMgrEp;
  grant.dst = 0;
  grant.kind = kLockGrant;
  grant.a = kDemandLock;
  grant.b = 1;
  grant.c = net::kNoEndpoint;
  grant.payload.assign(2 * 3, 0);  // directory mode: counts, then clock
  EXPECT_TRUE(f.mailbox(0).push(std::move(grant)));
  p0.wlock(kDemandLock);
  for (int i = 0; i < 3; ++i) p0.write_int(kDemandVar, 10 + i);  // no ticks
  p0.wunlock(kDemandLock);  // flushes x to its home, p1
  auto flushed = f.mailbox(1).recv();
  EXPECT_TRUE(flushed.has_value());
  write_registered(f, p0, kY, 7);  // clock component 2, staged
  return flushed.value_or(net::Message{});
}

/// Ask process 0 for its frontier; returns what it sent process 1 since.
std::vector<net::Message> probe_frontier(net::Fabric& f) {
  net::Message probe;
  probe.src = 1;
  probe.dst = 0;
  probe.kind = kFrontierReq;
  EXPECT_TRUE(f.mailbox(0).push(std::move(probe)));
  std::vector<net::Message> out;
  while (out.empty() || out.back().kind != kFrontierResp) {
    auto m = f.mailbox(1).recv();
    if (!m.has_value()) break;
    out.push_back(std::move(*m));
  }
  return out;
}

TEST(DirectoryDemandLocks, FrontierStampsCountOnlyClockedWrites) {
  const Config cfg = demand_dir_config();
  net::Fabric f(4);
  Node p0(cfg, 0, f, kMgrEp);
  const net::Message first = writes_behind_demand_lock(f, p0);
  EXPECT_EQ(first.kind, kUpdate);
  EXPECT_EQ(first.b, 1u);  // one clocked write, not four write ids
  const std::vector<net::Message> rest = probe_frontier(f);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].kind, kUpdate);  // y, flushed ahead of the reply
  EXPECT_EQ(rest[0].b, 2u);
  EXPECT_EQ(rest[1].a, 2u);
  f.shutdown();
}

TEST(DirectoryDemandLocks, CausalReadWaitsForWriteBehindDemandLockWrites) {
  // p2 has seen p0's y=7 and then written z; p1 learns z (clock {2,0,1})
  // before p0's frame carrying y arrives.  p1's causal read of y must wait
  // for it: an inflated frontier from p0 would let the read return 0.
  const Config cfg = demand_dir_config();
  net::Fabric f0(4);
  Node p0(cfg, 0, f0, kMgrEp);
  net::Message first = writes_behind_demand_lock(f0, p0);

  net::Fabric f1(4);
  Node p1(cfg, 1, f1, kMgrEp);
  ASSERT_TRUE(f1.mailbox(1).push(std::move(first)));
  BatchRecord z;
  z.var = kZ;
  z.value = value_of(std::int64_t{1});
  z.seq = 1;
  z.vc = VectorClock{2, 0, 1};
  net::Message from_p2 = encode_frame(std::span(&z, 1), 3);
  from_p2.src = 2;
  from_p2.dst = 1;
  from_p2.b = 1;  // p2's own frontier
  ASSERT_TRUE(f1.mailbox(1).push(std::move(from_p2)));

  auto reader = std::async(std::launch::async, [&] {
    p1.await_int(kZ, 1);
    return p1.read_int(kY, ReadMode::kCausal);
  });
  // p1 should probe p0's frontier; answer with p0's real reply, relayed
  // behind the frame it flushes first.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  bool probed = false;
  while (!probed && reader.wait_for(1ms) != std::future_status::ready &&
         std::chrono::steady_clock::now() < deadline) {
    while (auto m = f1.mailbox(0).try_recv()) probed |= m->kind == kFrontierReq;
  }
  if (probed) {
    for (net::Message& m : probe_frontier(f0)) ASSERT_TRUE(f1.mailbox(1).push(std::move(m)));
  }
  ASSERT_EQ(reader.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(reader.get(), 7);
  EXPECT_TRUE(probed);
  f0.shutdown();
  f1.shutdown();
}

// ----------------------------------------------------------------------
// History and monitor integration
// ----------------------------------------------------------------------

TEST(Directory, TracedRunPassesMixedChecker) {
  Config cfg = dir_config(3, 9);
  cfg.record_trace = true;
  MixedSystem sys(cfg);
  sys.run([](Node& n, ProcId p) {
    const VarId mine = static_cast<VarId>(3 * p);
    n.write_int(mine, 10 + p);
    n.barrier();
    for (ProcId q = 0; q < 3; ++q) {
      EXPECT_EQ(n.read_int(static_cast<VarId>(3 * q), ReadMode::kPram),
                10 + q);
    }
    n.barrier();
    n.wlock(0);
    n.write_int(1, int_of(n.read(1, ReadMode::kPram)) + 1);
    n.wunlock(0);
    n.barrier();
    EXPECT_EQ(n.read_int(1, ReadMode::kCausal), 3);
  });
  const history::History h = sys.collect_history();
  const auto verdict = history::check_mixed_consistency(h);
  EXPECT_TRUE(verdict.ok) << verdict.message();
}

// ----------------------------------------------------------------------
// Configuration validation
// ----------------------------------------------------------------------

using DirectoryDeathTest = ::testing::Test;

TEST(DirectoryDeathTest, RejectsTimestampElision) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Config cfg = dir_config(2, 8);
  cfg.count_vectors.emplace();
  EXPECT_DEATH(MixedSystem{cfg}, "vector timestamps");
}

TEST(DirectoryDeathTest, RejectsStaticSubscriberLists) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // Static subscriber lists belong to the count-vector config, so the
  // timestamp check rejects them together with the directory.
  Config cfg = dir_config(2, 8);
  cfg.count_vectors.emplace();
  cfg.count_vectors->subscribers[0] = {1};
  EXPECT_DEATH(MixedSystem{cfg}, "vector timestamps");
}

TEST(DirectoryDeathTest, RejectsMoreThan64Processes) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // Fires before any node or thread is built.
  EXPECT_DEATH(MixedSystem{dir_config(65, 8)}, "sharer sets are encoded as 64-bit masks");
}

// ----------------------------------------------------------------------
// Metrics surface
// ----------------------------------------------------------------------

TEST(Directory, MetricsExposeDirectoryKeys) {
  MixedSystem sys(dir_config(2, 8, /*budget=*/1, /*fetch_frame=*/1));
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write_int(0, 5);
      n.write_int(1, 6);
      n.barrier();
      n.barrier();
    } else {
      n.barrier();
      (void)n.read_int(0, ReadMode::kPram);
      (void)n.read_int(1, ReadMode::kPram);  // evicts var 0
      n.barrier();
    }
  });
  const MetricsSnapshot snap = sys.metrics();
  for (const char* key :
       {"directory.fills", "directory.fill_records", "directory.evictions",
        "directory.evicted_frames", "directory.frontier_pings", "directory.sharer_adds",
        "directory.sharer_dels", "directory.sharers_purged"}) {
    EXPECT_TRUE(snap.values.count(key)) << key;
  }
  EXPECT_TRUE(snap.values.count("directory.fill_wait_ns.count"));
  EXPECT_GE(snap.values.at("directory.fills"), 2u);
  EXPECT_GE(snap.values.at("directory.fill_records"), 2u);
}

// ----------------------------------------------------------------------
// Elastic membership interplay (docs/FAULTS.md "Membership and views")
// ----------------------------------------------------------------------

TEST(ElasticDirectory, GracefulLeavePurgesDepartedSharers) {
  // p2 demand-pages replicas of p0's variables (registering in the sharer
  // directory everywhere), then leaves.  The view commit must purge its
  // sharer bits — survivors' subsequent writes stop multicasting to the
  // corpse — and the directory keeps serving fills under the new view.
  Config cfg = dir_config(3, 9);
  cfg.elastic = true;
  MixedSystem sys(cfg);

  obs::ConsistencyMonitor mon(3);
  mon.enable_elastic(full_mask(3));
  sys.attach_op_sink(&mon);

  const auto outcome = sys.run(
      [&](Node& n, ProcId p) {
        n.write_int(static_cast<VarId>(3 * p), 10 + p);
        n.barrier();
        // Everyone (p2 included) registers as a sharer of p0's var 0.
        EXPECT_EQ(n.read_int(0, ReadMode::kPram), 10);
        n.barrier();
        if (p == 2) {
          n.leave();
          return;
        }
        while (n.view().epoch == 0) std::this_thread::sleep_for(200us);
        // Post-leave: writes multicast only to surviving sharers, and
        // fills still work — including for var 6, whose home (p2) is gone
        // and which re-homed to a survivor.
        n.write_int(static_cast<VarId>(3 * p + 1), 20 + p);
        n.barrier();
        EXPECT_EQ(n.read_int(static_cast<VarId>(3 * (1 - p) + 1), ReadMode::kPram),
                  20 + (1 - p));
        EXPECT_EQ(n.read_int(6, ReadMode::kCausal), 12);
      },
      30s);
  EXPECT_FALSE(outcome.stalled) << outcome.diagnostics.reason;

  const MetricsSnapshot snap = sys.metrics();
  EXPECT_EQ(snap.get("view.leaves"), 1u);
  EXPECT_GT(snap.get("directory.sharers_purged"), 0u)
      << "the departed sharer's registration bits must leave the directory";

  const auto verdict = mon.finalize();
  EXPECT_TRUE(verdict.well_formed) << verdict.error;
  EXPECT_TRUE(verdict.causal.ok && verdict.pram.ok && verdict.mixed.ok);
  EXPECT_FALSE(mon.status().structural_failed);
}

TEST(ElasticDirectory, LiveJoinReceivesSharerMapAndRehomedVariables) {
  // A joiner enters an already-populated directory: survivors send it
  // their sharer rows (kDirSharerSync), variables statically homed at the
  // joiner re-home to it with their current values, and its first reads of
  // foreign variables demand-page like any member's.
  constexpr VarId kStart = 7;  // the joiner's first barrier instance, plus one
  Config cfg = dir_config(3, 9);
  cfg.elastic = true;
  cfg.initial_members = std::vector<ProcId>{0, 1};
  MixedSystem sys(cfg);

  const auto outcome = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 2) {
          n.join();
          EXPECT_TRUE(n.view().is_alive(2));
          n.write_int(kStart, static_cast<std::int64_t>(n.next_barrier_epoch()) + 1);
          // Var 6 re-homed to us at the commit; the previous ring home's
          // re-offer carries the pre-join value.  Foreign variables
          // demand-page (and register us) under the new epoch.
          n.await_int(6, 42);
          n.await_int(0, 10);
          n.await_int(3, 11);
          n.write_int(8, 99);  // statically ours again now
          n.barrier();
          n.barrier();
        } else {
          n.write_int(p == 0 ? 0 : 3, 10 + p);
          if (p == 0) n.write_int(6, 42);  // ring-homed at p0 while p2 is out
          // Awaiting each other's vars registers sharers pre-join, so the
          // joiner's kDirSharerSync actually has rows to ship.
          n.await_int(p == 0 ? 3 : 0, 11 - p);
          while (!n.view().is_alive(2)) std::this_thread::sleep_for(200us);
          // Meet the joiner at the barrier instance its commit named: an
          // instance opened before that commit releases without it.
          std::int64_t start = 0;
          while ((start = n.read_int(kStart, ReadMode::kPram)) == 0) {
            std::this_thread::sleep_for(200us);
          }
          while (static_cast<std::int64_t>(n.next_barrier_epoch()) + 1 < start) n.barrier();
          n.barrier();
          // p2's pre-barrier write: our stale ring-era pin on var 8 lapsed
          // at the commit, so this read demand-pages from the joiner.
          EXPECT_EQ(n.read_int(8, ReadMode::kCausal), 99);
          n.barrier();
        }
      },
      30s);
  EXPECT_FALSE(outcome.stalled) << outcome.diagnostics.reason;

  const MetricsSnapshot snap = sys.metrics();
  EXPECT_EQ(snap.get("view.joins"), 1u);
  EXPECT_GT(snap.get("directory.fills"), 0u);
}

}  // namespace
}  // namespace mc::dsm
