// Update staging and propagation (Config::batching; DESIGN.md §6.3).
//
// Four layers of coverage:
//   - the update-frame codec: round trips, one-record frames at the cost
//     of a bare update, and the wire_bytes honesty the delta-encoded
//     clocks exist for;
//   - coalescing semantics: last-writer-wins for plain writes, summation
//     for deltas, no cross-kind merging, truthful weights in count mode;
//   - the send path itself: one one-record frame per write and destination
//     under the default max_updates = 1 (the directory included), and the
//     flush deadline in the node's own mailbox as the only way a staged
//     write of a silent process ever ships;
//   - flush-on-sync litmus programs: staging windows so large that ONLY the
//     mandatory flushes before barrier / unlock / await / fetch can ship an
//     update — if any flush point were skipped, the observing process would
//     block on its consistency floor forever (or read a stale value), so
//     these programs terminating with the right values is exactly the
//     Theorem 1 preservation argument, run under both ideal and chaotic
//     fabrics.

#include "dsm/batch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <tuple>

#include "common/rng.h"
#include "dsm/system.h"
#include "history/checkers.h"
#include "net/fault.h"

namespace mc::dsm {
namespace {

using namespace std::chrono_literals;

// A staging window nothing but a mandatory flush can close within test
// lifetime: thresholds and delay far beyond what any litmus program stages.
BatchingConfig sync_only_batching() {
  BatchingConfig b;
  b.max_updates = 1 << 20;
  b.max_bytes = std::size_t{1} << 30;
  b.max_delay = 1h;
  return b;
}

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

// ----------------------------------------------------------------------
// Codec
// ----------------------------------------------------------------------

BatchRecord clocked_record(std::size_t procs, VarId var, SeqNo seq) {
  BatchRecord r;
  r.var = var;
  r.value = value_of(static_cast<std::int64_t>(var) * 3);
  r.seq = seq;
  r.vc = VectorClock(procs);
  r.vc.set(0, seq);
  return r;
}

TEST(BatchCodec, RoundTripsRecordsWithClocks) {
  constexpr std::size_t kProcs = 5;
  std::vector<BatchRecord> recs;
  for (int i = 0; i < 4; ++i) {
    BatchRecord r;
    r.var = static_cast<VarId>(100 + i);
    r.value = value_of(1.5 * i);
    r.flags = i % 2 == 0 ? kFlagWrite : kFlagDoubleDelta;
    r.seq = 40 + 3 * static_cast<SeqNo>(i);
    r.weight = 1 + static_cast<std::uint64_t>(i);
    r.vc = VectorClock(kProcs);
    r.vc.set(1, 7 + static_cast<std::uint64_t>(i));
    r.vc.set(3, 2);
    recs.push_back(r);
  }
  const net::Message m = encode_frame(recs, kProcs);
  EXPECT_EQ(m.kind, kUpdate);
  EXPECT_EQ(m.d, recs[0].seq);  // record 0 rides in the header
  EXPECT_EQ(decode_frame(m, kProcs), recs);
}

TEST(BatchCodec, RoundTripsCountModeRecords) {
  std::vector<BatchRecord> recs;
  for (int i = 0; i < 3; ++i) {
    BatchRecord r;
    r.var = static_cast<VarId>(i);
    r.value = static_cast<Value>(1000 + i);
    r.flags = kFlagIntDelta;
    r.seq = static_cast<SeqNo>(10 + i);
    r.weight = 2;
    recs.push_back(r);
  }
  const net::Message m = encode_frame(recs, /*clock_words=*/0);
  // Three words per record after the first, which the header carries.
  EXPECT_EQ(m.payload.size(), 2u * 3u);
  EXPECT_EQ(decode_frame(m, /*clock_words=*/0), recs);
}

TEST(BatchCodec, OneRecordFrameCostsABareUpdate) {
  // An unbatched write is a one-record frame: the header plus the P words
  // of its clock (the base), one more word for an elastic view epoch, and
  // the header alone in count-vector mode — no mask word, no record count.
  constexpr std::size_t kProcs = 6;
  BatchRecord r = clocked_record(kProcs, 3, 9);
  r.vc.set(4, 2);
  const net::Message plain = encode_frame(std::span(&r, 1), kProcs);
  EXPECT_EQ(plain.wire_bytes(), net::Message::kHeaderBytes + 8 * kProcs);
  EXPECT_EQ(decode_frame(plain, kProcs), std::vector<BatchRecord>{r});

  BatchRecord elastic = r;
  elastic.epoch = 3;
  const net::Message with_epoch = encode_frame(std::span(&elastic, 1), kProcs);
  EXPECT_EQ(with_epoch.wire_bytes(), net::Message::kHeaderBytes + 8 * kProcs + 8);
  EXPECT_EQ(decode_frame(with_epoch, kProcs), std::vector<BatchRecord>{elastic});

  BatchRecord counted = r;
  counted.vc = VectorClock();
  const net::Message count_mode = encode_frame(std::span(&counted, 1), /*clock_words=*/0);
  EXPECT_EQ(count_mode.wire_bytes(), net::Message::kHeaderBytes);
  EXPECT_EQ(decode_frame(count_mode, /*clock_words=*/0), std::vector<BatchRecord>{counted});
}

TEST(BatchCodec, RoundTripMixesBaseClockAndDeltaRecords) {
  // Records whose clock equals the base ship no mask word; the others ship
  // a mask and one word per differing component.  Option words ride along.
  constexpr std::size_t kProcs = 4;
  std::vector<BatchRecord> recs;
  BatchRecord at_base = clocked_record(kProcs, 1, 5);  // clock [5,0,0,0]: the base
  recs.push_back(at_base);
  BatchRecord delta = clocked_record(kProcs, 2, 7);  // differs in 2 components
  delta.vc.set(2, 4);
  delta.flags = kFlagIntDelta;
  delta.epoch = 2;
  delta.weight = 3;
  recs.push_back(delta);
  BatchRecord offer = at_base;  // equals the base again, mid-frame
  offer.var = 3;
  offer.flags = kFlagCounterBase;
  offer.writer = 2;
  offer.baseline = 11;
  recs.push_back(offer);

  const net::Message m = encode_frame(recs, kProcs);
  // base (4) + record 1: 3 + epoch + mask + 2 deltas + record 2: 3 + writer
  // + baseline.  Record 0 is all header.
  EXPECT_EQ(m.payload.size(), kProcs + (3 + 1 + 1 + 2) + (3 + 2));
  EXPECT_EQ(decode_frame(m, kProcs), recs);
}

TEST(BatchCodec, RoundTripsSnapshotRecords) {
  // Snapshot records (fills, demand fetches, view state transfers) carry
  // an explicit writer, the write epoch, the staleness baseline, and
  // kFlagCounterBase for a counter; a never-written entry carries none.
  constexpr std::size_t kProcs = 3;
  std::vector<BatchRecord> recs;
  BatchRecord counter = clocked_record(kProcs, 4, 6);  // clock [6,0,0]
  counter.flags = kFlagCounterBase;
  counter.writer = 2;
  counter.epoch = 3;
  counter.baseline = 9;
  recs.push_back(counter);
  BatchRecord written = clocked_record(kProcs, 5, 2);  // clock [2,0,8]
  written.vc.set(2, 8);
  written.writer = 0;
  written.baseline = 1;
  recs.push_back(written);
  BatchRecord untouched;  // clock [0,0,0]: the base
  untouched.var = 6;
  untouched.vc = VectorClock(kProcs);
  recs.push_back(untouched);

  net::Message m = encode_frame(recs, kProcs);
  m.kind = kViewState;
  // base (3) + record 0: writer, epoch, baseline, mask, 1 delta + record 1:
  // 3 + writer + baseline + mask + 2 deltas + record 2: 3.
  EXPECT_EQ(m.payload.size(), kProcs + 5 + (3 + 2 + 3) + 3);
  EXPECT_EQ(decode_frame(m, kProcs), recs);
}

TEST(BatchCodec, EmptySnapshotFrameIsHeaderOnly) {
  // A join snapshot with nothing to ship: no base clock, no records.
  net::Message m = encode_frame({}, 4);
  EXPECT_TRUE(m.payload.empty());
  EXPECT_EQ(m.wire_bytes(), net::Message::kHeaderBytes);
  m.kind = kViewState;
  EXPECT_TRUE(decode_frame(m, 4).empty());
}

TEST(BatchCodec, WireBytesChargeDeltaEncodedClocks) {
  // N consecutive writes by one process: clocks differ from the frame base
  // only in the writer's component, so each record ships ONE clock-delta
  // word instead of P — and wire_bytes must charge the encoded payload,
  // not the logical full clocks (the C3/C11/C12 honesty fix).
  constexpr std::size_t kProcs = 16;
  constexpr std::size_t kRecords = 16;
  std::vector<BatchRecord> recs;
  std::size_t unbatched_bytes = 0;
  for (std::size_t i = 0; i < kRecords; ++i) {
    recs.push_back(clocked_record(kProcs, 7, i + 1));
    unbatched_bytes += encode_frame(std::span(&recs.back(), 1), kProcs).wire_bytes();
  }
  EXPECT_EQ(unbatched_bytes, kRecords * (net::Message::kHeaderBytes + 8 * kProcs));
  const net::Message m = encode_frame(recs, kProcs);
  // Payload: base clock (P), record 0 at the base, then per record w0,
  // value, seq, mask and one delta word.
  EXPECT_EQ(m.payload.size(), kProcs + (kRecords - 1) * 5);
  EXPECT_EQ(m.wire_bytes(), net::Message::kHeaderBytes + m.payload.size() * 8);
  EXPECT_LT(m.wire_bytes(), unbatched_bytes / 3);
}

// ----------------------------------------------------------------------
// Coalescing semantics
// ----------------------------------------------------------------------

Config two_proc_cfg(const BatchingConfig& batching) {
  Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 8;
  cfg.batching = batching;
  return cfg;
}

TEST(Batching, PlainWritesCollapseLastWriterWins) {
  MixedSystem sys(two_proc_cfg(sync_only_batching()));
  sys.run([&](Node& n, ProcId p) {
    if (p == 0) {
      for (int i = 1; i <= 5; ++i) n.write_int(0, i);
      n.barrier();
    } else {
      n.barrier();
      EXPECT_EQ(n.read_int(0, ReadMode::kPram), 5);
    }
  });
  const auto metrics = sys.metrics();
  // Five writes to one destination collapsed into one staged record.
  EXPECT_EQ(metrics.get("net.batch.coalesced"), 4u);
  EXPECT_EQ(metrics.get("net.batch.updates"), 1u);
  EXPECT_EQ(metrics.get("net.batch.msgs"), 1u);
  // The one flushed frame is the only update message.
  EXPECT_EQ(metrics.get("net.msg.update"), 1u);
}

TEST(Batching, DeltasMergeBySummation) {
  MixedSystem sys(two_proc_cfg(sync_only_batching()));
  sys.node(0).write_int(0, 1000);
  sys.run([&](Node& n, ProcId p) {
    n.barrier();
    if (p == 0) {
      for (int i = 1; i <= 4; ++i) n.dec_int(0, i);  // total 10
      n.barrier();
    } else {
      n.barrier();
      EXPECT_EQ(n.read_int(0, ReadMode::kPram), 990);
    }
  });
  EXPECT_EQ(sys.metrics().get("net.batch.coalesced"), 3u);
}

TEST(Batching, WriteAndDeltaToSameVarDoNotCrossCoalesce) {
  MixedSystem sys(two_proc_cfg(sync_only_batching()));
  sys.run([&](Node& n, ProcId p) {
    if (p == 0) {
      n.write_int(0, 100);
      n.dec_int(0, 30);
      n.write_int(1, 7);
      n.barrier();
    } else {
      n.barrier();
      EXPECT_EQ(n.read_int(0, ReadMode::kPram), 70);
      EXPECT_EQ(n.read_int(1, ReadMode::kPram), 7);
    }
  });
  const auto metrics = sys.metrics();
  EXPECT_EQ(metrics.get("net.batch.coalesced"), 0u);
  EXPECT_EQ(metrics.get("net.batch.updates"), 3u);
}

TEST(Batching, CountModeWeightsKeepSentCountsTruthful) {
  // Count vectors: barrier synchronization compares the receiver's
  // weighted receive index against the sender's per-original count.  Wrong
  // weights would leave p1's count floor unreachable (hang) or stale.
  Config cfg = two_proc_cfg(sync_only_batching());
  cfg.count_vectors.emplace();
  MixedSystem sys(cfg);
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          for (int i = 1; i <= 6; ++i) n.write_int(0, i);
          n.dec_int(1, 2);
          n.dec_int(1, 3);
          n.barrier();
        } else {
          n.barrier();
          EXPECT_EQ(n.read_int(0, ReadMode::kPram), 6);
          EXPECT_EQ(n.read_int(1, ReadMode::kPram), -5);
        }
      },
      10s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
  EXPECT_EQ(sys.metrics().get("net.batch.coalesced"), 6u);
}

TEST(Batching, ThresholdFlushShipsWithoutSynchronization) {
  // max_updates = 4: the fifth write forces a flush with no sync action in
  // sight; the reader eventually observes it through plain PRAM reads.
  BatchingConfig b = sync_only_batching();
  b.max_updates = 4;  // distinct variables: nothing coalesces
  MixedSystem sys(two_proc_cfg(b));
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          for (int i = 1; i <= 5; ++i) n.write_int(static_cast<VarId>(i), i);
        } else {
          n.await_int(4, 4);  // shipped by the threshold flush
        }
      },
      10s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
  EXPECT_GE(sys.metrics().get("net.batch.msgs"), 1u);
}

TEST(Batching, DelayFlushBoundsStalenessForAsyncReaders) {
  // No synchronization at all on the writer side and thresholds never
  // reached: only BatchingConfig::max_delay can ship the write.
  BatchingConfig b = sync_only_batching();
  b.max_delay = 1ms;
  MixedSystem sys(two_proc_cfg(b));
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          n.write_int(0, 42);
        } else {
          n.await_int(0, 42);
        }
      },
      10s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
}

TEST(Batching, DeadlineAloneShipsAStagedWriteToAnAwaitingReader) {
  // The writer stays alive, never synchronizes and receives no message
  // (the reader's await sends nothing), so neither a mandatory flush nor
  // the end of the writer's run can ship the write.  Only the flush
  // deadline the write posted into the writer's own mailbox can.
  BatchingConfig b = sync_only_batching();
  b.max_delay = 1ms;
  MixedSystem sys(two_proc_cfg(b));
  std::atomic<bool> seen{false};
  bool writer_outlived_reader = false;
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          n.write_int(0, 42);
          const auto give_up = std::chrono::steady_clock::now() + 10s;
          while (!seen.load() && std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(200us);
          }
          writer_outlived_reader = seen.load();
        } else {
          n.await_int(0, 42);
          seen = true;
        }
      },
      5s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
  EXPECT_TRUE(writer_outlived_reader);
  const auto metrics = sys.metrics();
  EXPECT_EQ(metrics.get("net.msg.update"), 1u);
  EXPECT_EQ(metrics.get("net.batch.updates"), 1u);
}

TEST(Batching, DefaultShipsOneOneRecordFramePerWritePerDestination) {
  // Config's default, max_updates = 1: every write leaves inline as its own
  // one-record frame to every peer — the paper's one-message-per-write
  // sketch — whatever the program does between writes.
  constexpr std::size_t kProcs = 3;
  constexpr std::size_t kVars = 6;
  Config cfg;
  cfg.num_procs = kProcs;
  cfg.num_vars = kVars;
  cfg.default_lock_policy = LockPolicy::kLazy;
  ASSERT_EQ(cfg.batching.max_updates, 1u);
  MixedSystem sys(cfg);
  sys.run([&](Node& n, ProcId p) {
    Rng rng(77 * (p + 1));
    for (int step = 0; step < 30; ++step) {
      const auto x = static_cast<VarId>(rng.below(kVars));
      if (rng.chance(0.5)) {
        n.wlock(0);
        n.write_int(x, n.read_int(x, ReadMode::kCausal) + 1);
        n.wunlock(0);
      } else {
        n.write_int(x, step);
        n.write_int(x, step + 1);  // would coalesce if it were staged
      }
    }
    n.barrier();
  });
  const auto metrics = sys.metrics();
  const std::uint64_t writes = metrics.get("dsm.writes");
  ASSERT_GT(writes, 0u);
  EXPECT_EQ(metrics.get("net.msg.update"), writes * (kProcs - 1));
  EXPECT_EQ(metrics.get("net.batch.msgs"), writes * (kProcs - 1));
  EXPECT_EQ(metrics.get("net.batch.updates"), writes * (kProcs - 1));
  EXPECT_EQ(metrics.get("net.batch.coalesced"), 0u);
  EXPECT_EQ(metrics.get("net.batch.updates_per_msg.count"), writes * (kProcs - 1));
  EXPECT_EQ(metrics.get("net.batch.updates_per_msg.max"), 1u);
}

// ----------------------------------------------------------------------
// The directory on the inline send path (max_updates = 1)
// ----------------------------------------------------------------------

Config inline_dir_cfg(std::size_t procs, std::size_t vars, std::size_t budget = 0,
                      std::size_t fetch_frame = 16) {
  Config cfg;
  cfg.num_procs = procs;
  cfg.num_vars = vars;
  DirectoryConfig dir;
  dir.replica_budget = budget;
  dir.fetch_frame = fetch_frame;
  cfg.directory = dir;
  return cfg;
}

TEST(Batching, InlineDirectoryFillSeesWriteOrderedBeforeReadFloor) {
  MixedSystem sys(inline_dir_cfg(3, 9));  // vars 0..2 p0, 3..5 p1, 6..8 p2
  const auto out = sys.run(
      [](Node& n, ProcId p) {
        if (p == 0) {
          n.write_int(0, 1234);
          n.write_int(3, 77);  // homed at p1: the write registers p0 first
          n.barrier();
          n.barrier();
        } else {
          n.barrier();
          EXPECT_EQ(n.read_int(0, ReadMode::kPram), 1234);
          EXPECT_EQ(n.read_int(3, ReadMode::kCausal), 77);
          n.barrier();
        }
      },
      20s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
  EXPECT_GE(sys.metrics().get("directory.fills"), 1u);
  EXPECT_EQ(sys.metrics().get("net.batch.updates_per_msg.max"), 1u);
}

TEST(Batching, InlineDirectoryLockSerializedIncrementsNeverLoseUpdates) {
  // Replica budget 1 and one-variable frames: constant evict/re-fetch churn
  // on the lock-protected counter.
  constexpr int kIters = 12;
  MixedSystem sys(inline_dir_cfg(3, 9, /*budget=*/1, /*fetch_frame=*/1));
  const auto out = sys.run(
      [](Node& n, ProcId p) {
        for (int i = 0; i < kIters; ++i) {
          n.wlock(0);
          n.write_int(0, n.read_int(0, ReadMode::kCausal) + 1);
          n.wunlock(0);
          (void)n.read_int(static_cast<VarId>(3 * ((p + 1) % 3) + 1), ReadMode::kPram);
        }
        n.barrier();
        EXPECT_EQ(n.read_int(0, ReadMode::kCausal), 3 * kIters);
        n.barrier();
      },
      20s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
  EXPECT_GE(sys.metrics().get("directory.evictions"), 1u);
}

TEST(Batching, InlineDirectoryCausalChainAcrossThreeNodes) {
  MixedSystem sys(inline_dir_cfg(3, 9));
  const auto out = sys.run(
      [](Node& n, ProcId p) {
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
      },
      20s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
}

TEST(Batching, InlineDirectoryTracedRunPassesMixedChecker) {
  Config cfg = inline_dir_cfg(3, 9);
  cfg.record_trace = true;
  MixedSystem sys(cfg);
  const auto out = sys.run(
      [](Node& n, ProcId p) {
        const VarId mine = static_cast<VarId>(3 * p);
        n.write_int(mine, 10 + p);
        n.barrier();
        for (ProcId q = 0; q < 3; ++q) {
          EXPECT_EQ(n.read_int(static_cast<VarId>(3 * q), ReadMode::kPram), 10 + q);
        }
        n.barrier();
        n.wlock(0);
        n.write_int(1, int_of(n.read(1, ReadMode::kPram)) + 1);
        n.wunlock(0);
        n.barrier();
        EXPECT_EQ(n.read_int(1, ReadMode::kCausal), 3);
      },
      20s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
  const auto verdict = history::check_mixed_consistency(sys.collect_history());
  EXPECT_TRUE(verdict.ok) << verdict.message();
}

// ----------------------------------------------------------------------
// Flush-on-sync litmus programs
// ----------------------------------------------------------------------

struct LitmusParam {
  bool chaos = false;
  LockPolicy policy = LockPolicy::kLazy;
};

class BatchingLitmus : public ::testing::TestWithParam<bool> {
 protected:
  Config make_cfg(std::size_t procs, std::size_t vars) {
    Config cfg;
    cfg.num_procs = procs;
    cfg.num_vars = vars;
    cfg.batching = sync_only_batching();
    if (GetParam()) {
      cfg.faults = chaos_plan(4242);
      cfg.reliable = true;
    }
    return cfg;
  }
};

INSTANTIATE_TEST_SUITE_P(Fabrics, BatchingLitmus, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "chaotic" : "ideal";
                         });

TEST_P(BatchingLitmus, BarrierArrivalFlushesStagedWrites) {
  MixedSystem sys(make_cfg(3, 4));
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        n.write_int(p, 100 + static_cast<int>(p));
        n.barrier();
        for (ProcId q = 0; q < 3; ++q) {
          EXPECT_EQ(n.read_int(q, ReadMode::kPram), 100 + static_cast<int>(q));
        }
      },
      20s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
}

TEST_P(BatchingLitmus, UnlockFlushesCriticalSectionWritesLazy) {
  Config cfg = make_cfg(2, 2);
  cfg.default_lock_policy = LockPolicy::kLazy;
  MixedSystem sys(cfg);
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          n.wlock(0);
          n.write_int(0, 55);
          n.wunlock(0);
          n.barrier();
        } else {
          n.barrier();  // order the episodes: p0's critical section first
          n.wlock(0);
          EXPECT_EQ(n.read_int(0, ReadMode::kCausal), 55);
          n.wunlock(0);
        }
      },
      20s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
}

TEST_P(BatchingLitmus, UnlockFlushesCriticalSectionWritesEager) {
  Config cfg = make_cfg(2, 2);
  cfg.default_lock_policy = LockPolicy::kEager;
  MixedSystem sys(cfg);
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          n.wlock(0);
          n.write_int(0, 66);
          n.wunlock(0);  // eager: probes must follow the flushed batch
          n.barrier();
        } else {
          n.barrier();
          // The eager release already made the write globally visible.
          EXPECT_EQ(n.read_int(0, ReadMode::kPram), 66);
        }
      },
      20s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
}

TEST_P(BatchingLitmus, AwaitFlushesOwnStagedWritesFirst) {
  // Handshake: p0 stages data + flag and then awaits p1's answer, which p1
  // only produces after seeing the flag.  Without flush-before-await both
  // processes would block forever on each other's staged buffers.  p1's
  // trailing await resolves locally against its own answer write — its only
  // effect is the mandatory flush that ships that write to p0.
  MixedSystem sys(make_cfg(2, 3));
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          n.write_int(0, 7);  // data
          n.write_int(1, 1);  // flag
          n.await_int(2, 1);  // answer
        } else {
          n.await_int(1, 1);
          EXPECT_EQ(n.read_int(0, ReadMode::kCausal), 7);
          n.write_int(2, 1);
          n.await_int(2, 1);
        }
      },
      20s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
}

TEST_P(BatchingLitmus, DemandPolicyPublishesStagedOrdinaryWrites) {
  // Demand policy: p0's protected write stays local and migrates with the
  // lock, while its ordinary write is staged — the unlock-entry flush must
  // publish the staged record before the write-set digest ships, or p1's
  // causal read of the ordinary variable (whose clock the fetched entry
  // dominates) would block forever.
  Config cfg = make_cfg(2, 3);
  cfg.default_lock_policy = LockPolicy::kDemand;
  cfg.demand_association[0] = 0;
  MixedSystem sys(cfg);
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          n.write_int(2, 9);  // ordinary broadcast write, staged
          n.wlock(0);
          n.write_int(0, 11);  // protected: migrates with the lock
          n.wunlock(0);
          n.barrier();
        } else {
          n.barrier();
          n.wlock(0);
          EXPECT_EQ(n.read_int(0, ReadMode::kCausal), 11);  // demand fetch
          n.wunlock(0);
          EXPECT_EQ(n.read_int(2, ReadMode::kCausal), 9);
        }
      },
      20s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
}

TEST_P(BatchingLitmus, RandomLitmusProgramHistoryStillChecks) {
  constexpr std::size_t kVars = 4;
  constexpr int kSteps = 40;
  Config cfg = make_cfg(3, kVars + 1);
  cfg.record_trace = true;
  // Real batching dynamics (small windows), not the sync-only extreme.
  BatchingConfig b;
  b.max_updates = 4;
  b.max_delay = 200us;
  cfg.batching = b;
  const VarId counter = kVars;

  MixedSystem sys(cfg);
  sys.node(0).write_int(counter, 1'000'000);
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        n.barrier();
        Rng rng(1313 * (p + 1));
        for (int step = 0; step < kSteps; ++step) {
          if (step % 13 == 12) {
            n.barrier();
            continue;
          }
          switch (rng.below(8)) {
            case 0:
            case 1:
            case 2:
              n.write(static_cast<VarId>(rng.below(kVars)),
                      (std::uint64_t{p} << 32) | static_cast<std::uint64_t>(step));
              break;
            case 3:
            case 4:
              std::ignore = n.read(static_cast<VarId>(rng.below(kVars)),
                                   rng.chance(0.5) ? ReadMode::kPram
                                                   : ReadMode::kCausal);
              break;
            case 5:
              n.dec_int(counter, static_cast<std::int64_t>(rng.below(3)) + 1);
              break;
            default: {
              n.wlock(0);
              const Value v = n.read(0, ReadMode::kCausal);
              n.write(0, v + 1);
              n.wunlock(0);
              break;
            }
          }
        }
        n.barrier();
      },
      30s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;

  const auto h = sys.collect_history();
  const auto res = history::check_mixed_consistency(h);
  EXPECT_TRUE(res.ok) << res.message() << "\n" << h.to_string();
}

}  // namespace
}  // namespace mc::dsm
