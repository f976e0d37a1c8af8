#include "core/report.hh"

#include <gtest/gtest.h>

namespace pmtest::core
{
namespace
{

Finding
finding(Severity severity, FindingKind kind, const char *file,
        uint32_t line, const std::string &msg = "m")
{
    Finding f;
    f.severity = severity;
    f.kind = kind;
    f.loc = SourceLocation(file, line);
    f.message = msg;
    return f;
}

TEST(ReportTest, CountsBySeverity)
{
    Report r;
    r.add(finding(Severity::Fail, FindingKind::NotPersisted, "a", 1));
    r.add(finding(Severity::Warn, FindingKind::RedundantFlush, "a", 2));
    r.add(finding(Severity::Fail, FindingKind::NotOrdered, "a", 3));
    EXPECT_EQ(r.failCount(), 2u);
    EXPECT_EQ(r.warnCount(), 1u);
    EXPECT_FALSE(r.passed());
    EXPECT_FALSE(r.clean());
}

TEST(ReportTest, WarnOnlyReportPasses)
{
    Report r;
    r.add(finding(Severity::Warn, FindingKind::DuplicateLog, "a", 1));
    EXPECT_TRUE(r.passed());
    EXPECT_FALSE(r.clean());
}

TEST(ReportTest, MergeAppends)
{
    Report a, b;
    a.add(finding(Severity::Fail, FindingKind::NotPersisted, "a", 1));
    b.add(finding(Severity::Warn, FindingKind::DuplicateLog, "b", 2));
    a.merge(b);
    EXPECT_EQ(a.findings().size(), 2u);
}

TEST(ReportTest, MoveMergeTakesFindings)
{
    Report into, first, second;
    first.add(finding(Severity::Fail, FindingKind::NotPersisted,
                      internFileName("a.cc"), 1, "first"));
    second.add(finding(Severity::Warn, FindingKind::DuplicateLog,
                       internFileName("b.cc"), 2));
    second.add(finding(Severity::Fail, FindingKind::MissingLog,
                       internFileName("b.cc"), 3));

    into.merge(std::move(first));
    into.merge(std::move(second));
    ASSERT_EQ(into.findings().size(), 3u);
    EXPECT_EQ(into.findings()[0].loc.str(), "a.cc:1");
    EXPECT_EQ(into.findings()[0].message, "first");
    EXPECT_EQ(into.findings()[2].loc.str(), "b.cc:3");
    // The sources are emptied: nothing is held twice.
    EXPECT_TRUE(first.clean());
    EXPECT_TRUE(second.clean());
}

TEST(ReportTest, CanonicalizeIsStableAndIdempotent)
{
    // (opIndex, line): equal op indexes keep their detection order.
    Report r;
    const std::pair<size_t, uint32_t> order[] = {
        {5, 1}, {2, 2}, {5, 3}, {9, 4}};
    for (const auto &[op, line] : order) {
        Finding f = finding(Severity::Fail, FindingKind::NotPersisted,
                            "a", line);
        f.opIndex = op;
        r.add(f);
    }
    const uint32_t expected[] = {2, 1, 3, 4};
    for (int pass = 0; pass < 2; pass++) { // the second is a no-op
        r.canonicalize();
        ASSERT_EQ(r.findings().size(), 4u);
        for (size_t i = 0; i < 4; i++)
            EXPECT_EQ(r.findings()[i].loc.line, expected[i]) << i;
    }
}

TEST(ReportTest, SummaryDeduplicatesBySite)
{
    Report r;
    for (int i = 0; i < 100; i++) {
        r.add(finding(Severity::Fail, FindingKind::MissingLog,
                      "hot.cc", 42, "write without backup"));
    }
    r.add(finding(Severity::Warn, FindingKind::RedundantFlush,
                  "cold.cc", 7));

    const auto summary = r.summary();
    ASSERT_EQ(summary.size(), 2u);
    // FAILs sort first, then by count.
    EXPECT_EQ(summary[0].kind, FindingKind::MissingLog);
    EXPECT_EQ(summary[0].count, 100u);
    EXPECT_EQ(summary[0].loc.str(), "hot.cc:42");
    EXPECT_EQ(summary[0].firstMessage, "write without backup");
    EXPECT_EQ(summary[1].count, 1u);
}

TEST(ReportTest, SummarySeparatesDifferentLinesOfSameFile)
{
    Report r;
    r.add(finding(Severity::Fail, FindingKind::NotOrdered, "x.cc", 1));
    r.add(finding(Severity::Fail, FindingKind::NotOrdered, "x.cc", 2));
    EXPECT_EQ(r.summary().size(), 2u);
}

TEST(ReportTest, SummaryStrMentionsCounts)
{
    Report r;
    for (int i = 0; i < 3; i++)
        r.add(finding(Severity::Fail, FindingKind::NotPersisted,
                      "y.cc", 9));
    const std::string s = r.summaryStr();
    EXPECT_NE(s.find("x3"), std::string::npos);
    EXPECT_NE(s.find("y.cc:9"), std::string::npos);
}

TEST(ReportTest, FindingStrFormat)
{
    const auto f = finding(Severity::Warn, FindingKind::DuplicateLog,
                           "z.cc", 11, "logged twice");
    EXPECT_EQ(f.str(),
              "WARN(duplicate-log) logged twice @ z.cc:11 [f0:t0:op0]");
}

TEST(ReportTest, FindingStrRendersIdentityTriple)
{
    auto f = finding(Severity::Fail, FindingKind::NotPersisted,
                     "a.cc", 3, "not persisted");
    f.fileId = 2;
    f.traceId = 17;
    f.opIndex = 4;
    EXPECT_EQ(f.str(),
              "FAIL(not-persisted) not persisted @ a.cc:3 [f2:t17:op4]");
}

TEST(ReportTest, KindNamesAreStable)
{
    EXPECT_STREQ(findingKindName(FindingKind::NotPersisted),
                 "not-persisted");
    EXPECT_STREQ(findingKindName(FindingKind::MissingLog),
                 "missing-log");
    EXPECT_STREQ(findingKindName(FindingKind::Malformed),
                 "malformed-trace");
}

} // namespace
} // namespace pmtest::core
