// Store-view unit tests: write/delta application semantics and metadata
// tracking.

#include <gtest/gtest.h>

#include <tuple>

#include "dsm/store.h"

namespace mc::dsm {
namespace {

TEST(Store, StartsZeroedAndUnwritten) {
  Store s(4, 2);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.entry(0).value, 0u);
  EXPECT_FALSE(s.entry(0).last.valid());
  EXPECT_TRUE(s.entry(0).vc.empty());
}

TEST(Store, WriteOverwritesValueAndMetadata) {
  Store s(4, 2);
  s.apply(1, 42, kFlagWrite, WriteId{0, 1}, VectorClock{1, 0});
  EXPECT_EQ(s.entry(1).value, 42u);
  EXPECT_EQ(s.entry(1).last, (WriteId{0, 1}));
  EXPECT_EQ(s.entry(1).vc, (VectorClock{1, 0}));
  s.apply(1, 43, kFlagWrite, WriteId{1, 1}, VectorClock{1, 1});
  EXPECT_EQ(s.entry(1).value, 43u);
  EXPECT_EQ(s.entry(1).vc, (VectorClock{1, 1}));
}

TEST(Store, WritesFormAnLwwRegisterOverTheCausalOrder) {
  Store s(4, 2);
  s.apply(1, 47, kFlagWrite, WriteId{0, 3}, VectorClock{3, 2});
  // A retransmission-delayed copy of a causally *earlier* write arrives
  // late (docs/FAULTS.md): it must not overwrite the newer value.
  s.apply(1, 7, kFlagWrite, WriteId{1, 2}, VectorClock{0, 2});
  EXPECT_EQ(s.entry(1).value, 47u);
  EXPECT_EQ(s.entry(1).last, (WriteId{0, 3}));
  EXPECT_EQ(s.entry(1).vc, (VectorClock{3, 2}));
  // An equal clock is a network duplicate of the installed write: no-op.
  s.apply(1, 47, kFlagWrite, WriteId{0, 3}, VectorClock{3, 2});
  EXPECT_EQ(s.entry(1).value, 47u);
  // Concurrent writes are arbitrated by (vc.total(), proc, seq) so both
  // store views pick the same winner in any apply order.  {2, 4} beats
  // {3, 2} on component sum (6 > 5) despite being concurrent...
  s.apply(1, 9, kFlagWrite, WriteId{1, 3}, VectorClock{2, 4});
  EXPECT_EQ(s.entry(1).value, 9u);
  EXPECT_EQ(s.entry(1).vc, (VectorClock{2, 4}));
  // ...and a concurrent write with a *smaller* sum loses.
  s.apply(1, 13, kFlagWrite, WriteId{0, 4}, VectorClock{4, 1});
  EXPECT_EQ(s.entry(1).value, 9u);
  // On a sum tie the (proc, seq) of the write breaks it deterministically:
  // {4, 2} by p0 loses to the installed {2, 4} by p1 (equal sums, lower
  // writer id).
  s.apply(1, 21, kFlagWrite, WriteId{0, 5}, VectorClock{4, 2});
  EXPECT_EQ(s.entry(1).value, 9u);
  // `force` (demand-policy migratory writes, untick'd clocks) bypasses the
  // register order: even a clock equal to the installed one applies.
  s.apply(1, 33, kFlagWrite, WriteId{0, 6}, VectorClock{2, 4}, 0, /*force=*/true);
  EXPECT_EQ(s.entry(1).value, 33u);
}

TEST(Store, IntDeltaSubtractsAndMergesClocks) {
  Store s(4, 2);
  s.apply(0, value_of(std::int64_t{100}), kFlagWrite, WriteId{0, 1}, VectorClock{1, 0});
  s.apply(0, value_of(std::int64_t{30}), kFlagIntDelta, WriteId{1, 1}, VectorClock{0, 1});
  EXPECT_EQ(int_of(s.entry(0).value), 70);
  EXPECT_EQ(s.entry(0).vc, (VectorClock{1, 1}));
  EXPECT_EQ(s.entry(0).last, (WriteId{1, 1}));
}

TEST(Store, IntDeltaOnUnwrittenLocationStartsAtZero) {
  Store s(4, 2);
  s.apply(2, value_of(std::int64_t{5}), kFlagIntDelta, WriteId{0, 1}, VectorClock{1, 0});
  EXPECT_EQ(int_of(s.entry(2).value), -5);
}

TEST(Store, DoubleDeltaSubtracts) {
  Store s(4, 2);
  s.apply(3, value_of(10.5), kFlagWrite, WriteId{0, 1}, VectorClock{1, 0});
  s.apply(3, value_of(2.25), kFlagDoubleDelta, WriteId{1, 1}, VectorClock{0, 1});
  EXPECT_DOUBLE_EQ(double_of(s.entry(3).value), 8.25);
}

TEST(Store, WriteConcurrentWithAppliedDeltaStillLands) {
  // Process 1 applies its own delta first; process 0's earlier write,
  // concurrent with it, arrives next, then process 0's later delta.  The
  // write must land under the delta (re-applied on top), or process 1
  // ends at -5 and has applied process 0's delta without its write.
  Store s(1, 2);
  s.apply(0, value_of(2.5), kFlagDoubleDelta, WriteId{1, 1}, VectorClock{0, 1});
  s.apply(0, value_of(10.0), kFlagWrite, WriteId{0, 1}, VectorClock{1, 0});
  EXPECT_DOUBLE_EQ(double_of(s.entry(0).value), 7.5);
  EXPECT_EQ(s.entry(0).vc, (VectorClock{1, 1}));
  s.apply(0, value_of(2.5), kFlagDoubleDelta, WriteId{0, 2}, VectorClock{1, 1});
  EXPECT_DOUBLE_EQ(double_of(s.entry(0).value), 5.0);

  // The other apply order (write, then both deltas) reaches the same value.
  Store t(1, 2);
  t.apply(0, value_of(10.0), kFlagWrite, WriteId{0, 1}, VectorClock{1, 0});
  t.apply(0, value_of(2.5), kFlagDoubleDelta, WriteId{1, 1}, VectorClock{0, 1});
  t.apply(0, value_of(2.5), kFlagDoubleDelta, WriteId{0, 2}, VectorClock{1, 1});
  EXPECT_DOUBLE_EQ(double_of(t.entry(0).value), 5.0);
}

TEST(Store, WriteDropsOnlyTheDeltasItHasSeen) {
  Store s(1, 3);
  s.apply(0, value_of(std::int64_t{1}), kFlagIntDelta, WriteId{1, 1}, VectorClock{0, 1, 0});
  s.apply(0, value_of(std::int64_t{2}), kFlagIntDelta, WriteId{2, 1}, VectorClock{0, 0, 1});
  // The write saw process 1's delta but not process 2's: only the latter
  // is re-applied.
  s.apply(0, value_of(std::int64_t{50}), kFlagWrite, WriteId{0, 1}, VectorClock{1, 1, 0});
  EXPECT_EQ(int_of(s.entry(0).value), 48);
  // A write that has seen everything replaces the value outright.
  s.apply(0, value_of(std::int64_t{7}), kFlagWrite, WriteId{0, 2}, VectorClock{2, 1, 1});
  EXPECT_EQ(int_of(s.entry(0).value), 7);
  EXPECT_EQ(s.entry(0).vc, (VectorClock{2, 1, 1}));
  EXPECT_EQ(s.entry(0).last, (WriteId{0, 2}));
}

TEST(Store, WriteVersusWriteStaysLwwUnderLayeredDeltas) {
  Store s(1, 3);
  s.apply(0, value_of(std::int64_t{40}), kFlagWrite, WriteId{1, 1}, VectorClock{0, 1, 0});
  s.apply(0, value_of(std::int64_t{5}), kFlagIntDelta, WriteId{2, 1}, VectorClock{0, 0, 1});
  // Concurrent with both the installed write and the delta, and losing to
  // the write on the (sum, proc, seq) key: rejected, delta kept.
  s.apply(0, value_of(std::int64_t{90}), kFlagWrite, WriteId{0, 1}, VectorClock{1, 0, 0});
  EXPECT_EQ(int_of(s.entry(0).value), 35);
  // Causally after the installed write but concurrent with the delta:
  // lands, with the delta re-applied.
  s.apply(0, value_of(std::int64_t{60}), kFlagWrite, WriteId{0, 2}, VectorClock{2, 1, 0});
  EXPECT_EQ(int_of(s.entry(0).value), 55);
}

TEST(Store, DeltaWithEmptyClockLeavesClockAlone) {
  Store s(4, 2);
  s.apply(0, value_of(std::int64_t{1}), kFlagIntDelta, WriteId{0, 1}, VectorClock{});
  EXPECT_EQ(int_of(s.entry(0).value), -1);
  EXPECT_TRUE(s.entry(0).vc.empty());
}

TEST(Store, InstallReplacesEverything) {
  Store s(4, 2);
  s.apply(0, 1, kFlagWrite, WriteId{0, 1}, VectorClock{1, 0});
  s.install(0, 99, WriteId{1, 7}, VectorClock{3, 4});
  EXPECT_EQ(s.entry(0).value, 99u);
  EXPECT_EQ(s.entry(0).last, (WriteId{1, 7}));
  EXPECT_EQ(s.entry(0).vc, (VectorClock{3, 4}));
}

TEST(Store, OutOfRangeAccessDies) {
  Store s(2, 2);
  EXPECT_DEATH(std::ignore = s.entry(5), "MC_CHECK");
}

}  // namespace
}  // namespace mc::dsm
