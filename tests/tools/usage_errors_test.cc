/**
 * @file
 * The uniform flag-error contract, asserted against the real
 * binaries: every unknown flag and every malformed value makes
 * pmtest_check, pmtest_recall and pmtest_seed_corpus print a
 * diagnostic plus their usage text to stderr and exit 2, and --help
 * prints usage to stdout and exits 0. pmtest_check also exits 2,
 * naming the file, on a trace file the reader rejects (v1, or a
 * corrupt header). Binary paths are injected by CMake
 * (PMTEST_*_BIN).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "tests/tools/tool_driver.hh"
#include "trace/seed_corpus.hh"
#include "trace/trace_io.hh"

namespace
{

using pmtest::testtools::RunResult;
using pmtest::testtools::run;

void
expectUsageError(const std::string &bin, const std::string &args,
                 const std::string &needle)
{
    const RunResult r = run(bin + " " + args);
    EXPECT_EQ(r.exitCode, 2) << bin << " " << args;
    EXPECT_NE(r.stderrText.find("usage:"), std::string::npos)
        << bin << " " << args << " stderr: " << r.stderrText;
    EXPECT_NE(r.stderrText.find(needle), std::string::npos)
        << bin << " " << args << " stderr: " << r.stderrText;
}

const char *const kAllBins[] = {PMTEST_CHECK_BIN, PMTEST_RECALL_BIN,
                                PMTEST_SEED_BIN};

TEST(UsageErrorsTest, UnknownFlagExitsTwoOnEveryTool)
{
    for (const char *bin : kAllBins)
        expectUsageError(bin, "--no-such-flag",
                         "unknown option '--no-such-flag'");
}

TEST(UsageErrorsTest, HelpExitsZeroOnEveryTool)
{
    for (const char *bin : kAllBins) {
        const RunResult r = run(std::string(bin) + " --help");
        EXPECT_EQ(r.exitCode, 0) << bin;
        EXPECT_NE(r.stdoutText.find("usage:"), std::string::npos)
            << bin;
        EXPECT_TRUE(r.stderrText.empty()) << bin;
    }
}

TEST(UsageErrorsTest, CheckRejectsBadValues)
{
    const std::string bin = PMTEST_CHECK_BIN;
    expectUsageError(bin, "--workers=abc x.trace",
                     "invalid value for --workers: 'abc'");
    expectUsageError(bin, "--max-findings= x.trace",
                     "invalid value for --max-findings: ''");
    expectUsageError(bin, "--model=sparc x.trace",
                     "(choices: x86, hops, arm)");
    expectUsageError(bin, "--metrics-port=99999 x.trace",
                     "(max 65535)");
    expectUsageError(bin, "--quiet=1 x.trace",
                     "--quiet takes no value");
    expectUsageError(bin, "", "usage:"); // missing positional
}

TEST(UsageErrorsTest, CheckRejectsBadDistributedSpecs)
{
    const std::string bin = PMTEST_CHECK_BIN;
    expectUsageError(bin, "--worker=nonsense x.trace",
                     "invalid value for --worker: 'nonsense'");
    expectUsageError(bin, "--worker=3/2 --report-out=r x.trace",
                     "out of range");
    expectUsageError(bin, "--worker=0/2 x.trace",
                     "--worker needs --report-out=FILE");
    expectUsageError(bin, "--merge --worker=0/2 --report-out=r x.part",
                     "--merge cannot combine with --worker");
    expectUsageError(bin, "--merge --stats x.part",
                     "--merge cannot combine with --stats");
    expectUsageError(bin, "--merge=1 x.part",
                     "--merge takes no value");
    // There is no in-host coordinator: --merge gathers the parts.
    expectUsageError(bin, "--distribute=2 x.trace",
                     "unknown option '--distribute=2'");
}

TEST(UsageErrorsTest, CheckHasNoIngestOrShardsFlag)
{
    const std::string bin = PMTEST_CHECK_BIN;
    expectUsageError(bin, "--ingest=auto x.trace",
                     "unknown option '--ingest=auto'");
    expectUsageError(bin, "--shards=2 x.trace",
                     "unknown option '--shards=2'");
}

TEST(UsageErrorsTest, CheckHasNoBatchFlag)
{
    // The pool takes one trace per submit; there is no knob for it.
    expectUsageError(PMTEST_CHECK_BIN, "--batch=4 x.trace",
                     "unknown option '--batch=4'");
}

TEST(UsageErrorsTest, CheckRejectsV1AndCorruptTraceFiles)
{
    std::vector<pmtest::Trace> traces;
    for (pmtest::SeedTrace &seed : pmtest::seedCorpusTraces())
        traces.push_back(std::move(seed.trace));
    const auto writeBytes = [](const std::string &path,
                               const std::string &bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };
    const auto expectRejected = [](const std::string &path,
                                   const std::string &needle) {
        const RunResult r =
            run(std::string(PMTEST_CHECK_BIN) + " " + path);
        EXPECT_EQ(r.exitCode, 2) << path << " stdout: "
                                 << r.stdoutText;
        EXPECT_TRUE(r.stdoutText.empty()) << r.stdoutText;
        EXPECT_EQ(r.stderrText.rfind(path + ": ", 0), 0u)
            << r.stderrText;
        EXPECT_NE(r.stderrText.find(needle), std::string::npos)
            << r.stderrText;
    };

    // A version-1 file: header, then unframed bodies, no index.
    const std::string v1_path = testing::TempDir() + "usage_v1.trace";
    {
        std::string bytes;
        const auto put = [&bytes](auto value) {
            bytes.append(reinterpret_cast<const char *>(&value),
                         sizeof(value));
        };
        put(pmtest::TraceWire::kMagic);
        put(uint32_t{1});
        put(static_cast<uint32_t>(traces.size()));
        for (const auto &trace : traces)
            pmtest::encodeTraceBody(trace, &bytes);
        writeBytes(v1_path, bytes);
    }
    expectRejected(v1_path, "version 1");

    // A valid file with bit 0 of its header trace count flipped: the
    // footer disagrees, so the file is rejected instead of checked
    // one trace short (or long).
    const std::string count_path =
        testing::TempDir() + "usage_count.trace";
    ASSERT_TRUE(pmtest::saveTracesToFile(count_path, traces));
    {
        std::ifstream in(count_path, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        bytes[12] = static_cast<char>(bytes[12] ^ 1);
        writeBytes(count_path, bytes);
    }
    expectRejected(count_path, "trace count mismatch");

    std::remove(v1_path.c_str());
    std::remove(count_path.c_str());
}

TEST(UsageErrorsTest, RecallRejectsBadValues)
{
    const std::string bin = PMTEST_RECALL_BIN;
    expectUsageError(bin, "--metrics-port=notaport",
                     "invalid value for --metrics-port: 'notaport'");
    expectUsageError(bin, "--json=", "--json needs a value");
    expectUsageError(bin, "unexpected-positional",
                     "unexpected argument 'unexpected-positional'");
}

TEST(UsageErrorsTest, SeedCorpusRejectsBadArgCounts)
{
    const std::string bin = PMTEST_SEED_BIN;
    expectUsageError(bin, "", "usage:"); // missing out path
    expectUsageError(bin, "a.trace b.trace",
                     "unexpected argument 'b.trace'");
}

} // namespace
