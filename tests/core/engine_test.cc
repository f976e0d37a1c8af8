#include "core/engine.hh"

#include <gtest/gtest.h>

namespace pmtest::core
{
namespace
{

Trace
makeTrace(std::vector<PmOp> ops)
{
    Trace t(1, 0);
    t.append(ops);
    return t;
}

PmOp
op(OpType type, uint64_t addr = 0, uint64_t size = 0)
{
    return PmOp{type, addr, size, 0, 0, {}};
}

TEST(EngineTest, PaperFig7EndToEnd)
{
    // The worked example of §4.4: line 5's isPersist FAILs, line 6's
    // isOrderedBefore passes.
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        PmOp::write(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::sfence(),
        PmOp::write(0x50, 64),
        PmOp::isPersist(0x50, 64),
        PmOp::isOrderedBefore(0x10, 64, 0x50, 64),
    }));

    ASSERT_EQ(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::NotPersisted);
    EXPECT_EQ(report.findings()[0].opIndex, 4u);
}

TEST(EngineTest, CleanTracePasses)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        PmOp::write(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::sfence(),
        PmOp::write(0x50, 64),
        PmOp::clwb(0x50, 64),
        PmOp::sfence(),
        PmOp::isOrderedBefore(0x10, 64, 0x50, 64),
        PmOp::isPersist(0x10, 64),
        PmOp::isPersist(0x50, 64),
    }));
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(EngineTest, Fig1aMissingBarrierDetected)
{
    // The intro's buggy ArrayUpdate: backup.valid set in the same
    // epoch as backup.val, so "val before valid" is not guaranteed.
    constexpr uint64_t kVal = 0x100, kValid = 0x140;
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        PmOp::write(kVal, 8),   // backup.val = ...
        PmOp::write(kValid, 1), // backup.valid = true (no barrier!)
        PmOp::clwb(kVal, 8),
        PmOp::clwb(kValid, 1),
        PmOp::sfence(),
        PmOp::isOrderedBefore(kVal, 8, kValid, 1),
    }));
    ASSERT_EQ(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::NotOrdered);
}

TEST(EngineTest, MissingLogInsideTransaction)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 64),
        PmOp::write(0x10, 64), // backed up: fine
        PmOp::write(0x80, 64), // NOT backed up: missing-log bug
        PmOp::clwb(0x10, 64),
        PmOp::clwb(0x80, 64),
        PmOp::sfence(),
        op(OpType::TxEnd),
    }));
    ASSERT_EQ(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::MissingLog);
    EXPECT_EQ(report.findings()[0].opIndex, 3u);
}

TEST(EngineTest, WritesOutsideTransactionNeedNoLog)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        PmOp::write(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::sfence(),
    }));
    EXPECT_TRUE(report.clean());
}

TEST(EngineTest, LogTreeClearedAtOutermostCommit)
{
    // A TX_ADD from transaction 1 must not cover transaction 2.
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 64),
        PmOp::write(0x10, 8),
        PmOp::clwb(0x10, 8),
        PmOp::sfence(),
        op(OpType::TxEnd),
        op(OpType::TxBegin),
        PmOp::write(0x10, 8), // no TX_ADD in this transaction
        op(OpType::TxEnd),
    }));
    ASSERT_EQ(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::MissingLog);
}

TEST(EngineTest, NestedTransactionKeepsLog)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 64),
        op(OpType::TxBegin), // nested
        PmOp::write(0x10, 8), // covered by the outer TX_ADD
        op(OpType::TxEnd),
        PmOp::write(0x18, 8), // still covered
        PmOp::clwb(0x10, 16),
        PmOp::sfence(),
        op(OpType::TxEnd),
    }));
    EXPECT_EQ(report.failCount(), 0u) << report.str();
}

TEST(EngineTest, DuplicateLogWarns)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 64),
        op(OpType::TxAdd, 0x10, 64), // duplicate
        PmOp::write(0x10, 8),
        PmOp::clwb(0x10, 8),
        PmOp::sfence(),
        op(OpType::TxEnd),
    }));
    EXPECT_EQ(report.warnCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::DuplicateLog);
}

TEST(EngineTest, TxCheckerDetectsIncompleteTransaction)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxCheckStart),
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 64),
        PmOp::write(0x10, 64),
        op(OpType::TxEnd), // no flush/fence: update may be volatile
        op(OpType::TxCheckEnd),
    }));
    ASSERT_GE(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::IncompleteTx);
}

TEST(EngineTest, TxCheckerPassesCompleteTransaction)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxCheckStart),
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 64),
        PmOp::write(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::sfence(),
        op(OpType::TxEnd),
        op(OpType::TxCheckEnd),
    }));
    EXPECT_TRUE(report.passed()) << report.str();
}

TEST(EngineTest, TxCheckerFlagsOpenTransaction)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxCheckStart),
        op(OpType::TxBegin),
        op(OpType::TxCheckEnd), // TX still open here
        op(OpType::TxEnd),
    }));
    ASSERT_GE(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::UnmatchedTx);
}

TEST(EngineTest, ExcludedRangeIsNotChecked)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::Exclude, 0x10, 64),
        op(OpType::TxBegin),
        PmOp::write(0x10, 64), // excluded: no missing-log finding
        op(OpType::TxEnd),
        PmOp::isPersist(0x10, 64), // excluded: checker skipped
    }));
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(EngineTest, IncludeRestoresTracking)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::Exclude, 0x10, 64),
        op(OpType::Include, 0x10, 64),
        PmOp::write(0x10, 64),
        PmOp::isPersist(0x10, 64), // not flushed: FAIL expected
    }));
    EXPECT_EQ(report.failCount(), 1u);
}

TEST(EngineTest, UnterminatedTransactionFlagged)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxBegin),
    }));
    ASSERT_EQ(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::UnmatchedTx);
}

TEST(EngineTest, MalformedTxEventsFlagged)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxEnd),
        op(OpType::TxAdd, 0x10, 8),
        op(OpType::TxCheckEnd),
    }));
    EXPECT_EQ(report.failCount(), 3u);
    for (const auto &f : report.findings())
        EXPECT_EQ(f.kind, FindingKind::Malformed);
}

TEST(EngineTest, TracesAreIndependent)
{
    // State (epochs, log tree, exclusions) must not leak between
    // traces: the same trace checked twice yields the same result.
    Engine engine(ModelKind::X86);
    const auto trace = makeTrace({
        op(OpType::Exclude, 0x900, 64),
        PmOp::write(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::sfence(),
        PmOp::isPersist(0x10, 64),
    });
    EXPECT_TRUE(engine.check(trace).clean());
    EXPECT_TRUE(engine.check(trace).clean());
    EXPECT_EQ(engine.tracesChecked(), 2u);
    EXPECT_EQ(engine.opsProcessed(), 10u);
}

TEST(EngineTest, HopsEngineChecksHopsTraces)
{
    Engine engine(ModelKind::Hops);
    const Report report = engine.check(makeTrace({
        PmOp::write(0x10, 64),
        PmOp::ofence(),
        PmOp::write(0x50, 64),
        PmOp::dfence(),
        PmOp::isOrderedBefore(0x10, 64, 0x50, 64),
        PmOp::isPersist(0x10, 64),
        PmOp::isPersist(0x50, 64),
    }));
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(EngineTest, OnlyHopsEngineTracksOpenWrites)
{
    // The written-since-dfence set serves the HOPS dfence alone: x86
    // and ARM engines must not build it, a HOPS engine must. The
    // writes are both single (per-op) and batched runs.
    const auto writes = makeTrace({
        PmOp::write(0x10, 8),
        PmOp::isPersist(0x10, 8),
        PmOp::write(0x100, 8),
        PmOp::write(0x200, 8),
        PmOp::write(0x300, 8),
    });
    for (const ModelKind kind : {ModelKind::X86, ModelKind::Arm}) {
        Engine engine(kind);
        EXPECT_FALSE(engine.model().needsOpenWrites());
        EXPECT_FALSE(engine.shadow().tracksOpenWrites());
        engine.check(writes);
        EXPECT_EQ(engine.shadow().entryCount(), 4u);
        EXPECT_EQ(engine.shadow().openWriteCount(), 0u)
            << engine.model().name();
    }
    Engine hops(ModelKind::Hops);
    EXPECT_TRUE(hops.model().needsOpenWrites());
    EXPECT_TRUE(hops.shadow().tracksOpenWrites());
    hops.check(writes);
    EXPECT_EQ(hops.shadow().openWriteCount(), 4u);
}

TEST(EngineTest, FindingCarriesLocation)
{
    Engine engine(ModelKind::X86);
    Trace t(1, 0);
    t.append(PmOp::write(0x10, 64));
    t.append(PmOp::isPersist(0x10, 64,
                             SourceLocation("app.cc", 99)));
    const Report report = engine.check(t);
    ASSERT_EQ(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].loc.str(), "app.cc:99");
}

} // namespace
} // namespace pmtest::core
