#include "core/shadow_memory.hh"

#include <gtest/gtest.h>

namespace pmtest::core
{
namespace
{

TEST(ShadowMemoryTest, WriteOpensPersistInterval)
{
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 64));
    const auto intervals = shadow.persistIntervals(AddrRange(0x10, 64));
    ASSERT_EQ(intervals.size(), 1u);
    EXPECT_EQ(intervals[0].second, Interval::open(0));
    EXPECT_FALSE(shadow.allPersisted(AddrRange(0x10, 64)));
}

TEST(ShadowMemoryTest, UnwrittenRangePassesVacuously)
{
    ShadowMemory shadow;
    EXPECT_TRUE(shadow.allPersisted(AddrRange(0x1000, 64)));
    EXPECT_FALSE(shadow.anyWrite(AddrRange(0x1000, 64)));
}

TEST(ShadowMemoryTest, FenceClosesFlushedWrite)
{
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 64));
    shadow.recordClwb(AddrRange(0x10, 64));
    shadow.bumpTimestamp();
    shadow.completePendingFlushes();

    EXPECT_TRUE(shadow.allPersisted(AddrRange(0x10, 64)));
    const auto intervals = shadow.persistIntervals(AddrRange(0x10, 64));
    ASSERT_EQ(intervals.size(), 1u);
    EXPECT_EQ(intervals[0].second, Interval(0, 1));
}

TEST(ShadowMemoryTest, FenceWithoutFlushLeavesOpen)
{
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 64));
    shadow.bumpTimestamp();
    shadow.completePendingFlushes();
    EXPECT_FALSE(shadow.allPersisted(AddrRange(0x10, 64)));
}

TEST(ShadowMemoryTest, WriteAfterClwbInvalidatesPendingFlush)
{
    // write A; clwb A; write A; sfence — the second store is not
    // covered by the writeback (paper §4.4 write rule clears status).
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 8));
    shadow.recordClwb(AddrRange(0x10, 8));
    shadow.recordWrite(AddrRange(0x10, 8));
    shadow.bumpTimestamp();
    shadow.completePendingFlushes();
    EXPECT_FALSE(shadow.allPersisted(AddrRange(0x10, 8)));
}

TEST(ShadowMemoryTest, PartialOverwriteKeepsOtherBytes)
{
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0, 64));
    shadow.recordClwb(AddrRange(0, 64));
    shadow.bumpTimestamp();
    shadow.completePendingFlushes(); // all persisted

    shadow.recordWrite(AddrRange(16, 16)); // re-dirty the middle
    EXPECT_TRUE(shadow.allPersisted(AddrRange(0, 16)));
    EXPECT_FALSE(shadow.allPersisted(AddrRange(16, 16)));
    EXPECT_FALSE(shadow.allPersisted(AddrRange(0, 64)));
    AddrRange open;
    EXPECT_FALSE(shadow.allPersisted(AddrRange(0, 64), &open));
    EXPECT_EQ(open.addr, 16u);
}

TEST(ShadowMemoryTest, ScanClwbFlagsRedundantFlush)
{
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 8));
    shadow.recordClwb(AddrRange(0x10, 8));
    const ClwbScan scan = shadow.scanClwb(AddrRange(0x10, 8));
    EXPECT_TRUE(scan.redundant);
}

TEST(ShadowMemoryTest, ScanClwbFlagsUnmodifiedData)
{
    ShadowMemory shadow;
    const ClwbScan scan = shadow.scanClwb(AddrRange(0x99, 8));
    EXPECT_TRUE(scan.unmodified);
    EXPECT_FALSE(scan.redundant);
}

TEST(ShadowMemoryTest, ScanClwbFlagsAlreadyCleanData)
{
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 8));
    shadow.recordClwb(AddrRange(0x10, 8));
    shadow.bumpTimestamp();
    shadow.completePendingFlushes();
    const ClwbScan scan = shadow.scanClwb(AddrRange(0x10, 8));
    EXPECT_TRUE(scan.alreadyClean);
    EXPECT_FALSE(scan.redundant);
    EXPECT_FALSE(scan.unmodified);
}

TEST(ShadowMemoryTest, CleanScanOnFreshWrite)
{
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 8));
    const ClwbScan scan = shadow.scanClwb(AddrRange(0x10, 8));
    EXPECT_FALSE(scan.redundant);
    EXPECT_FALSE(scan.unmodified);
    EXPECT_FALSE(scan.alreadyClean);
}

TEST(ShadowMemoryTest, DuplicateClwbCoalescesWithinEpoch)
{
    // Regression: repeated clwb of the same line used to append a new
    // fence-pending entry per call, making completePendingFlushes()
    // O(flushes x overlaps) within an epoch. Duplicates must coalesce
    // at record time.
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 64));
    for (int i = 0; i < 1000; i++)
        shadow.recordClwb(AddrRange(0x10, 64));
    EXPECT_EQ(shadow.pendingFlushCount(), 1u);

    shadow.bumpTimestamp();
    shadow.completePendingFlushes();
    EXPECT_EQ(shadow.pendingFlushCount(), 0u);
    EXPECT_TRUE(shadow.allPersisted(AddrRange(0x10, 64)));
    const auto intervals = shadow.persistIntervals(AddrRange(0x10, 64));
    ASSERT_EQ(intervals.size(), 1u);
    EXPECT_EQ(intervals[0].second, Interval(0, 1));
}

TEST(ShadowMemoryTest, OverlappingClwbRangesStayDisjoint)
{
    // Overlapping flush ranges carve into disjoint pending entries
    // instead of accumulating one entry per issued clwb.
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0, 128));
    for (int i = 0; i < 100; i++) {
        shadow.recordClwb(AddrRange(0, 64));
        shadow.recordClwb(AddrRange(32, 64)); // overlaps the first
    }
    EXPECT_LE(shadow.pendingFlushCount(), 3u);

    shadow.bumpTimestamp();
    shadow.completePendingFlushes();
    EXPECT_TRUE(shadow.allPersisted(AddrRange(0, 96)));
    EXPECT_FALSE(shadow.allPersisted(AddrRange(96, 32))); // unflushed
}

TEST(ShadowMemoryTest, DuplicateWritesCoalesceOpenWriteBookkeeping)
{
    // The HOPS dfence path keeps written-since-dfence ranges; writing
    // the same word in a loop must not grow that set.
    ShadowMemory shadow(/*track_open_writes=*/true);
    for (int i = 0; i < 1000; i++)
        shadow.recordWrite(AddrRange(0x40, 8));
    EXPECT_EQ(shadow.openWriteCount(), 1u);

    shadow.bumpTimestamp();
    shadow.completeAllWrites();
    EXPECT_EQ(shadow.openWriteCount(), 0u);
    EXPECT_TRUE(shadow.allPersisted(AddrRange(0x40, 8)));
}

TEST(ShadowMemoryTest, WriteAfterClwbStillInvalidatesCoalescedFlush)
{
    // The coalesced bookkeeping must preserve the invalidation rule:
    // a write after the clwb reopens the persist interval even though
    // the pending-flush range was recorded only once.
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 8));
    shadow.recordClwb(AddrRange(0x10, 8));
    shadow.recordClwb(AddrRange(0x10, 8)); // duplicate
    shadow.recordWrite(AddrRange(0x10, 8)); // invalidates both
    shadow.bumpTimestamp();
    shadow.completePendingFlushes();
    EXPECT_FALSE(shadow.allPersisted(AddrRange(0x10, 8)));
}

TEST(ShadowMemoryTest, CompleteAllWritesClosesEverything)
{
    // The HOPS dfence rule.
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0, 8));
    shadow.bumpTimestamp(); // ofence
    shadow.recordWrite(AddrRange(64, 8));
    shadow.bumpTimestamp(); // dfence...
    shadow.completeAllWrites();

    EXPECT_TRUE(shadow.allPersisted(AddrRange(0, 8)));
    EXPECT_TRUE(shadow.allPersisted(AddrRange(64, 8)));
    const auto a = shadow.persistIntervals(AddrRange(0, 8));
    const auto b = shadow.persistIntervals(AddrRange(64, 8));
    EXPECT_EQ(a[0].second, Interval(0, 2));
    EXPECT_EQ(b[0].second, Interval(1, 2));
}

TEST(ShadowMemoryTest, NonTrackingShadowKeepsNoOpenWrites)
{
    // Without tracking, writes update the persistency status exactly
    // as before but leave the written-since-dfence set empty.
    ShadowMemory shadow(/*track_open_writes=*/false);
    EXPECT_FALSE(shadow.tracksOpenWrites());
    shadow.recordWrite(AddrRange(0x40, 8));
    const AddrRange batch[] = {AddrRange(0x100, 8), AddrRange(0x200, 8)};
    shadow.recordWriteBatch(batch, 2);
    EXPECT_EQ(shadow.openWriteCount(), 0u);
    EXPECT_EQ(shadow.entryCount(), 3u);
    EXPECT_FALSE(shadow.allPersisted(AddrRange(0x40, 8)));
    EXPECT_TRUE(shadow.anyWrite(AddrRange(0x200, 8)));
}

TEST(ShadowMemoryDeathTest, CompleteAllWritesWithoutTrackingPanics)
{
    // A dfence on a shadow that never recorded its writes would leave
    // every persist interval open; it must stop, not pass wrongly.
    ShadowMemory shadow(/*track_open_writes=*/false);
    shadow.recordWrite(AddrRange(0x40, 8));
    shadow.bumpTimestamp();
    EXPECT_DEATH(shadow.completeAllWrites(), "open-write tracking");
}

/** Ranges have no operator==; compare their "[addr,end)" text. */
void
expectRange(const AddrRange &actual, uint64_t addr, uint64_t size)
{
    EXPECT_EQ(actual.str(), AddrRange(addr, size).str());
}

TEST(ShadowMemoryTest, ClwbOverGapEntriesAndPartialEdge)
{
    // One clwb starting inside an entry, spanning a gap, two entries
    // and a trailing gap: the prefix of the first entry keeps only
    // its persist interval, each overlapped piece gains an open flush
    // interval, and each gap becomes a flush-only entry. Repeated
    // after a fence, so the second pass runs on the reused buffer.
    for (int round = 0; round < 2; round++) {
        ShadowMemory shadow;
        shadow.recordWrite(AddrRange(0x100, 0x10));
        shadow.recordWrite(AddrRange(0x120, 0x10));
        shadow.recordWrite(AddrRange(0x130, 0x8));
        ASSERT_EQ(shadow.entryCount(), 3u);

        shadow.recordClwb(AddrRange(0x108, 0x38));
        // [100,108) [108,110) [110,120) [120,130) [130,138) [138,140)
        EXPECT_EQ(shadow.entryCount(), 6u);
        EXPECT_EQ(shadow.pendingFlushCount(), 1u);

        const auto persists = shadow.persistIntervals(AddrRange(0, 0x200));
        ASSERT_EQ(persists.size(), 4u);
        expectRange(persists[0].first, 0x100, 0x8);
        expectRange(persists[1].first, 0x108, 0x8);
        expectRange(persists[2].first, 0x120, 0x10);
        expectRange(persists[3].first, 0x130, 0x8);

        // The untouched prefix has no flush; the gaps have one.
        EXPECT_FALSE(shadow.scanClwb(AddrRange(0x100, 0x8)).redundant);
        const ClwbScan gap = shadow.scanClwb(AddrRange(0x110, 0x10));
        EXPECT_TRUE(gap.redundant);
        EXPECT_TRUE(gap.unmodified);
        EXPECT_TRUE(shadow.scanClwb(AddrRange(0x138, 0x8)).redundant);
        expectRange(shadow.unflushedSpan(AddrRange(0, 0x200)), 0x100,
                    0x8);

        shadow.bumpTimestamp();
        shadow.completePendingFlushes();
        AddrRange open;
        EXPECT_FALSE(shadow.allPersisted(AddrRange(0x100, 0x40), &open));
        expectRange(open, 0x100, 0x8);
        EXPECT_TRUE(shadow.allPersisted(AddrRange(0x108, 0x38)));
        EXPECT_EQ(shadow.entryCount(), 6u);
    }
}

} // namespace
} // namespace pmtest::core
