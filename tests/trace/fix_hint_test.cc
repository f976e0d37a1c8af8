#include "trace/fix_hint.hh"

#include <gtest/gtest.h>

namespace pmtest
{
namespace
{

Trace
makeTrace(std::vector<PmOp> ops)
{
    Trace t(7, 3);
    t.setFileId(2);
    t.append(ops);
    return t;
}

TEST(FixHintTest, ActionNamesAreStable)
{
    EXPECT_STREQ(fixActionName(FixAction::None), "none");
    EXPECT_STREQ(fixActionName(FixAction::InsertFlushFence),
                 "insert-flush-fence");
    EXPECT_STREQ(fixActionName(FixAction::InsertOrdering),
                 "insert-ordering");
    EXPECT_STREQ(fixActionName(FixAction::DeleteFlush),
                 "delete-flush");
}

TEST(FixHintTest, DefaultHintIsInvalid)
{
    FixHint hint;
    EXPECT_FALSE(hint.valid());
    hint.action = FixAction::InsertFence;
    EXPECT_TRUE(hint.valid());
}

TEST(FixHintTest, SameEditIgnoresVerified)
{
    FixHint a, b;
    a.action = b.action = FixAction::InsertFlush;
    a.addr = b.addr = 0x10;
    b.verified = true;
    EXPECT_TRUE(a.sameEdit(b));
    b.opIndex = 5;
    EXPECT_FALSE(a.sameEdit(b));
}

TEST(FixHintTest, InsertFlushFenceBeforeAnchor)
{
    const Trace trace = makeTrace({
        PmOp::write(0x10, 64),
        PmOp::isPersist(0x10, 64),
    });
    FixHint hint;
    hint.action = FixAction::InsertFlushFence;
    hint.addr = 0x10;
    hint.size = 64;
    hint.opIndex = 1;

    const Trace patched = applyFixHint(trace, hint);
    ASSERT_EQ(patched.size(), 4u);
    EXPECT_EQ(patched.ops()[0].type, OpType::Write);
    EXPECT_EQ(patched.ops()[1].type, OpType::Clwb);
    EXPECT_EQ(patched.ops()[1].addr, 0x10u);
    EXPECT_EQ(patched.ops()[2].type, OpType::Sfence);
    EXPECT_EQ(patched.ops()[3].type, OpType::CheckIsPersist);
}

TEST(FixHintTest, PatchedTraceKeepsIdentity)
{
    const Trace trace = makeTrace({PmOp::write(0x10, 64)});
    FixHint hint;
    hint.action = FixAction::InsertFence;
    hint.opIndex = 1;
    const Trace patched = applyFixHint(trace, hint);
    EXPECT_EQ(patched.id(), trace.id());
    EXPECT_EQ(patched.threadId(), trace.threadId());
    EXPECT_EQ(patched.fileId(), trace.fileId());
    EXPECT_EQ(patched.size(), 2u);
}

TEST(FixHintTest, InsertedOpsCarryFixHintLocation)
{
    const Trace trace = makeTrace({PmOp::write(0x10, 64)});
    FixHint hint;
    hint.action = FixAction::InsertTxAdd;
    hint.addr = 0x10;
    hint.size = 64;
    hint.opIndex = 0;
    const Trace patched = applyFixHint(trace, hint);
    ASSERT_EQ(patched.size(), 2u);
    EXPECT_STREQ(patched.ops()[0].loc.file, "<fix-hint>");
}

TEST(FixHintTest, InsertTxEndAppendsCountAtTraceEnd)
{
    const Trace trace = makeTrace({
        PmOp{OpType::TxBegin, 0, 0, 0, 0, {}},
        PmOp{OpType::TxBegin, 0, 0, 0, 0, {}},
    });
    FixHint hint;
    hint.action = FixAction::InsertTxEnd;
    hint.opIndex = 2; // == trace.size(): append
    hint.count = 2;
    const Trace patched = applyFixHint(trace, hint);
    ASSERT_EQ(patched.size(), 4u);
    EXPECT_EQ(patched.ops()[2].type, OpType::TxEnd);
    EXPECT_EQ(patched.ops()[3].type, OpType::TxEnd);
}

TEST(FixHintTest, DeleteFlushRemovesTheFlush)
{
    const Trace trace = makeTrace({
        PmOp::write(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::sfence(),
    });
    FixHint hint;
    hint.action = FixAction::DeleteFlush;
    hint.opIndex = 2;
    const Trace patched = applyFixHint(trace, hint);
    ASSERT_EQ(patched.size(), 3u);
    EXPECT_EQ(patched.ops()[0].type, OpType::Write);
    EXPECT_EQ(patched.ops()[1].type, OpType::Clwb);
    EXPECT_EQ(patched.ops()[2].type, OpType::Sfence);
}

TEST(FixHintTest, DeleteWithWrongAnchorTypeIsANoOp)
{
    const Trace trace = makeTrace({
        PmOp::write(0x10, 64),
        PmOp::sfence(),
    });
    FixHint hint;
    hint.action = FixAction::DeleteFlush;
    hint.opIndex = 0; // a write, not a flush
    const Trace patched = applyFixHint(trace, hint);
    EXPECT_EQ(patched.size(), trace.size());

    hint.action = FixAction::DeleteTxAdd;
    hint.opIndex = 1;
    EXPECT_EQ(applyFixHint(trace, hint).size(), trace.size());
}

TEST(FixHintTest, OutOfRangeAnchorIsANoOp)
{
    const Trace trace = makeTrace({PmOp::write(0x10, 64)});
    FixHint hint;
    hint.action = FixAction::InsertFence;
    hint.opIndex = 99;
    EXPECT_EQ(applyFixHint(trace, hint).size(), trace.size());
}

TEST(FixHintTest, InsertOrderingLandsBeforeFirstWriteToB)
{
    // Fig. 1a shape: val and valid written back-to-back, writebacks
    // trail. The repair materializes A's writeback + fence in front
    // of B's write and retires the now-redundant later writeback.
    const Trace trace = makeTrace({
        PmOp::write(0x100, 8),  // A
        PmOp::write(0x140, 1),  // B
        PmOp::clwb(0x100, 8),
        PmOp::clwb(0x140, 1),
        PmOp::sfence(),
        PmOp::isOrderedBefore(0x100, 8, 0x140, 1),
    });
    FixHint hint;
    hint.action = FixAction::InsertOrdering;
    hint.addr = 0x100;
    hint.size = 8;
    hint.addrB = 0x140;
    hint.sizeB = 1;
    hint.opIndex = 5;
    hint.withFlush = true;

    const Trace patched = applyFixHint(trace, hint);
    // +2 inserted, -1 retired clwb(0x100).
    ASSERT_EQ(patched.size(), 7u);
    EXPECT_EQ(patched.ops()[0].type, OpType::Write);
    EXPECT_EQ(patched.ops()[1].type, OpType::Clwb);
    EXPECT_EQ(patched.ops()[1].addr, 0x100u);
    EXPECT_EQ(patched.ops()[2].type, OpType::Sfence);
    EXPECT_EQ(patched.ops()[3].type, OpType::Write);
    EXPECT_EQ(patched.ops()[3].addr, 0x140u);
    EXPECT_EQ(patched.ops()[4].type, OpType::Clwb);
    EXPECT_EQ(patched.ops()[4].addr, 0x140u);
}

TEST(FixHintTest, InsertOrderingSkipsFlushWhenAlreadyFlushed)
{
    // A's writeback already precedes B's write; only the fence is
    // missing, and nothing is retired.
    const Trace trace = makeTrace({
        PmOp::write(0x100, 8),
        PmOp::clwb(0x100, 8),
        PmOp::write(0x140, 1),
        PmOp::clwb(0x140, 1),
        PmOp::sfence(),
        PmOp::isOrderedBefore(0x100, 8, 0x140, 1),
    });
    FixHint hint;
    hint.action = FixAction::InsertOrdering;
    hint.addr = 0x100;
    hint.size = 8;
    hint.addrB = 0x140;
    hint.sizeB = 1;
    hint.opIndex = 5;
    hint.withFlush = true;

    const Trace patched = applyFixHint(trace, hint);
    ASSERT_EQ(patched.size(), 7u);
    EXPECT_EQ(patched.ops()[1].type, OpType::Clwb);
    EXPECT_EQ(patched.ops()[2].type, OpType::Sfence);
    EXPECT_EQ(patched.ops()[3].type, OpType::Write);
    EXPECT_EQ(patched.ops()[3].addr, 0x140u);
}

TEST(FixHintTest, InsertOrderingWithoutFlushInsertsFenceOnly)
{
    const Trace trace = makeTrace({
        PmOp::write(0x10, 64),
        PmOp::write(0x50, 64),
        PmOp::dfence(),
        PmOp::isOrderedBefore(0x10, 64, 0x50, 64),
    });
    FixHint hint;
    hint.action = FixAction::InsertOrdering;
    hint.addr = 0x10;
    hint.size = 64;
    hint.addrB = 0x50;
    hint.sizeB = 64;
    hint.opIndex = 3;
    hint.fenceOp = OpType::Ofence;
    hint.withFlush = false;

    const Trace patched = applyFixHint(trace, hint);
    ASSERT_EQ(patched.size(), 5u);
    EXPECT_EQ(patched.ops()[1].type, OpType::Ofence);
    EXPECT_EQ(patched.ops()[2].type, OpType::Write);
    EXPECT_EQ(patched.ops()[2].addr, 0x50u);
}

TEST(FixHintTest, ApplyHintsResolvesAgainstOriginalIndices)
{
    // Two hints whose anchors would shift if applied sequentially:
    // an insertion at index 1 and a deletion at index 2.
    const Trace trace = makeTrace({
        PmOp::write(0x10, 64),
        PmOp::isPersist(0x10, 64),
        PmOp::clwb(0x80, 64),
        PmOp::sfence(),
    });
    FixHint flush;
    flush.action = FixAction::InsertFlushFence;
    flush.addr = 0x10;
    flush.size = 64;
    flush.opIndex = 1;
    FixHint del;
    del.action = FixAction::DeleteFlush;
    del.opIndex = 2;

    const Trace patched = applyFixHints(trace, {flush, del});
    ASSERT_EQ(patched.size(), 5u);
    EXPECT_EQ(patched.ops()[0].type, OpType::Write);
    EXPECT_EQ(patched.ops()[1].type, OpType::Clwb);
    EXPECT_EQ(patched.ops()[1].addr, 0x10u);
    EXPECT_EQ(patched.ops()[2].type, OpType::Sfence);
    EXPECT_EQ(patched.ops()[3].type, OpType::CheckIsPersist);
    EXPECT_EQ(patched.ops()[4].type, OpType::Sfence);
}

TEST(FixHintTest, DuplicateEditsCollapse)
{
    const Trace trace = makeTrace({
        PmOp::write(0x10, 64),
        PmOp::isPersist(0x10, 64),
    });
    FixHint hint;
    hint.action = FixAction::InsertFence;
    hint.opIndex = 1;
    FixHint same = hint;
    same.verified = true; // differs only in verified: still the same edit

    const Trace patched = applyFixHints(trace, {hint, same});
    EXPECT_EQ(patched.size(), 3u);
}

} // namespace
} // namespace pmtest
