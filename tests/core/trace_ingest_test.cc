/**
 * @file
 * Unified-ingest tests: the location-lifetime regression (a Report
 * must stay valid after every pipeline object that produced it is
 * destroyed, also once merged into another report), multi-source
 * ingest stats, and the engine's fileId stamping of findings.
 */

#include "core/trace_ingest.hh"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "trace/trace_io.hh"

namespace pmtest::core
{
namespace
{

std::string
tmpPath(const char *tag)
{
    return "/tmp/pmtest_trace_ingest_test_" +
           std::to_string(getpid()) + "_" + tag + ".bin";
}

/** A trace whose un-flushed store produces one FAIL finding. */
Trace
buggyTrace(uint64_t id)
{
    Trace t(id, 0);
    t.append(PmOp::write(0x1000, 64,
                         SourceLocation("workload.cc", 42)));
    t.append(PmOp::sfence(SourceLocation("workload.cc", 43)));
    t.append(PmOp::isPersist(0x1000, 64,
                             SourceLocation("checker.cc", 9)));
    return t;
}

TEST(TraceIngestTest, ReportOutlivesEveryPipelineObject)
{
    const std::string path = tmpPath("report_lifetime");
    {
        std::vector<Trace> traces;
        for (uint64_t i = 0; i < 4; i++)
            traces.push_back(buggyTrace(i));
        ASSERT_TRUE(saveTracesToFile(path, traces));
    }

    // Everything that could own the decoded file-name strings —
    // source, reader, pool, engines, the traces themselves — is
    // destroyed inside this scope. Only the report survives.
    Report merged;
    {
        std::string error;
        auto source =
            openTraceSource(path, IngestMode::Auto, 0, &error);
        ASSERT_TRUE(source) << error;
        PoolOptions options;
        options.workers = 2;
        EnginePool pool(options);
        SourceError source_error;
        ASSERT_TRUE(ingest(*source, pool, IngestOptions{}, nullptr,
                           &source_error))
            << source_error.str();
        merged = pool.results();
    }
    std::remove(path.c_str());
    merged.canonicalize();

    // The findings' const char* locations are interned names with
    // static storage, so they are still readable (under ASan a name
    // pointing into a destroyed reader or trace would fault here).
    ASSERT_EQ(merged.failCount(), 4u);
    for (const auto &finding : merged.findings()) {
        ASSERT_TRUE(finding.loc.valid());
        EXPECT_EQ(std::string(finding.loc.file), "checker.cc");
        EXPECT_EQ(finding.loc.file, internFileName("checker.cc"));
        EXPECT_EQ(finding.loc.line, 9u);
    }
}

TEST(TraceIngestTest, MergedReportOutlivesItsInputs)
{
    const std::string path = tmpPath("merge_lifetime");
    {
        std::vector<Trace> traces{buggyTrace(0)};
        ASSERT_TRUE(saveTracesToFile(path, traces));
    }

    Report outer;
    {
        std::string error;
        auto source =
            openTraceSource(path, IngestMode::Auto, 0, &error);
        ASSERT_TRUE(source) << error;
        EnginePool pool(PoolOptions{});
        SourceError source_error;
        ASSERT_TRUE(ingest(*source, pool, IngestOptions{}, nullptr,
                           &source_error));
        // One copy-merge, one move-merge: the inner reports, the pool
        // and the source all die at the end of this scope.
        const Report inner = pool.results();
        ASSERT_EQ(inner.failCount(), 1u);
        outer.merge(inner);
        outer.merge(pool.takeResults());
    }
    std::remove(path.c_str());

    ASSERT_EQ(outer.failCount(), 2u);
    for (const auto &finding : outer.findings()) {
        EXPECT_EQ(finding.loc.str(), "checker.cc:9");
        EXPECT_FALSE(finding.message.empty());
    }
}

TEST(TraceIngestTest, MultiSourceStatsAndFileIdStamping)
{
    const std::string path_a = tmpPath("multi_a");
    const std::string path_b = tmpPath("multi_b");
    {
        std::vector<Trace> a{buggyTrace(0), buggyTrace(1)};
        std::vector<Trace> b{buggyTrace(0)};
        ASSERT_TRUE(saveTracesToFile(path_a, a));
        ASSERT_TRUE(saveTracesToFile(path_b, b));
    }

    std::string error;
    std::vector<std::unique_ptr<TraceSource>> children;
    children.push_back(
        openTraceSource(path_a, IngestMode::Auto, 0, &error));
    ASSERT_TRUE(children.back()) << error;
    // The second file is read into a heap buffer instead of mapped.
    children.push_back(
        openTraceSource(path_b, IngestMode::Stream, 1, &error));
    ASSERT_TRUE(children.back()) << error;
    MultiTraceSource combined(std::move(children));

    EnginePool pool(PoolOptions{});
    IngestStats stats;
    SourceError source_error;
    ASSERT_TRUE(ingest(combined, pool, IngestOptions{}, &stats,
                       &source_error))
        << source_error.str();
    EXPECT_TRUE(stats.active);
    EXPECT_EQ(stats.sources, 2u);
    EXPECT_EQ(stats.tracesDecoded, 3u);
    // One child is buffer-backed, so the composite is not fully
    // mmap-backed.
    EXPECT_FALSE(stats.mmapBacked);

    Report merged = pool.results();
    merged.canonicalize();
    ASSERT_EQ(merged.failCount(), 3u);
    // Canonical order is (fileId, traceId): file 0's traces 0, 1
    // first, then file 1's trace 0 — even though its traceId ties
    // with file 0's first trace.
    ASSERT_EQ(merged.findings().size(), 3u);
    EXPECT_EQ(merged.findings()[0].fileId, 0u);
    EXPECT_EQ(merged.findings()[0].traceId, 0u);
    EXPECT_EQ(merged.findings()[1].fileId, 0u);
    EXPECT_EQ(merged.findings()[1].traceId, 1u);
    EXPECT_EQ(merged.findings()[2].fileId, 1u);
    EXPECT_EQ(merged.findings()[2].traceId, 0u);

    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

} // namespace
} // namespace pmtest::core
