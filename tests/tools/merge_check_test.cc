/**
 * @file
 * Scatter/gather checking, asserted against the real pmtest_check
 * binary: running `--worker=i/N` for every i and then `--merge` over
 * the parts prints the sequential run's bytes and exit code, on the
 * seed corpus and on a multi-file set; worker mode emits a wire
 * report instead of stdout output; and a missing, duplicate, foreign
 * or corrupt part fails the merge with exit 2 naming it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/report_io.hh"
#include "tests/tools/tool_driver.hh"

namespace
{

using pmtest::testtools::RunResult;
using pmtest::testtools::run;

/** Write the seed corpus to @p path via the real tool. */
void
seedCorpus(const std::string &path)
{
    const RunResult r =
        run(std::string(PMTEST_SEED_BIN) + " " + path);
    ASSERT_EQ(r.exitCode, 0) << r.stderrText;
}

std::string
tempName(const std::string &name)
{
    return testing::TempDir() + "dist_" + std::to_string(getpid()) +
           "_" + name;
}

/**
 * Run `--worker=i/n` for every i over @p args (flags and inputs),
 * returning the part paths in index order.
 */
std::vector<std::string>
runWorkers(const std::string &args, int n, const std::string &prefix)
{
    std::vector<std::string> parts;
    for (int i = 0; i < n; i++) {
        parts.push_back(tempName(prefix + "." + std::to_string(i)));
        const RunResult r =
            run(std::string(PMTEST_CHECK_BIN) + " --worker=" +
                std::to_string(i) + "/" + std::to_string(n) +
                " --report-out=" + parts.back() + " " + args);
        EXPECT_TRUE(r.exitCode == 0 || r.exitCode == 1)
            << "worker " << i << "/" << n << ": " << r.stderrText;
        EXPECT_TRUE(r.stdoutText.empty()) << r.stdoutText;
    }
    return parts;
}

RunResult
runMerge(const std::string &flags,
         const std::vector<std::string> &parts)
{
    std::string cmd = std::string(PMTEST_CHECK_BIN) + " --merge";
    if (!flags.empty())
        cmd += " " + flags;
    for (const std::string &part : parts)
        cmd += " " + part;
    return run(cmd);
}

void
removeAll(const std::vector<std::string> &paths)
{
    for (const std::string &path : paths)
        std::remove(path.c_str());
}

/**
 * Scatter @p inputs across @p n workers under @p flags, gather with
 * --merge (in index order and reversed), and expect the sequential
 * run's stdout and exit code.
 */
void
expectMergeMatchesSequential(const std::string &flags,
                             const std::string &inputs, int n)
{
    const std::string check = PMTEST_CHECK_BIN;
    const std::string args = flags.empty() ? inputs
                                           : flags + " " + inputs;
    const RunResult sequential = run(check + " " + args);
    const std::vector<std::string> parts = runWorkers(args, n, "part");
    const std::vector<std::string> reversed(parts.rbegin(),
                                            parts.rend());
    for (const auto *order : {&parts, &reversed}) {
        const RunResult merged = runMerge(flags, *order);
        EXPECT_EQ(merged.exitCode, sequential.exitCode)
            << flags << " N=" << n << ": " << merged.stderrText;
        EXPECT_EQ(merged.stdoutText, sequential.stdoutText)
            << flags << " N=" << n;
        EXPECT_TRUE(merged.stderrText.empty()) << merged.stderrText;
    }
    removeAll(parts);
}

TEST(DistributedCheckTest, MatchesSequentialOnSeedCorpus)
{
    const std::string corpus = tempName("corpus.trace");
    seedCorpus(corpus);
    const RunResult sequential =
        run(std::string(PMTEST_CHECK_BIN) + " " + corpus);
    EXPECT_EQ(sequential.exitCode, 1) << "seed corpus has FAILs";

    expectMergeMatchesSequential("", corpus, 4);
    expectMergeMatchesSequential("--model=hops", corpus, 4);
    std::remove(corpus.c_str());
}

TEST(DistributedCheckTest, MatchesSequentialOnMultiFileSet)
{
    // Three input files; distinct paths, fileId assigned by position.
    std::vector<std::string> files;
    std::string inputs;
    for (const char *name :
         {"multi_a.trace", "multi_b.trace", "multi_c.trace"}) {
        files.push_back(tempName(name));
        seedCorpus(files.back());
        inputs += " " + files.back();
    }
    // More workers than files: the empty shard must be harmless.
    expectMergeMatchesSequential("", inputs, 2);
    expectMergeMatchesSequential("--summary", inputs, 4);
    removeAll(files);
}

TEST(DistributedCheckTest, MissingOrCorruptPartFailsNamingIt)
{
    const std::string corpus = tempName("bad.trace");
    seedCorpus(corpus);
    const std::vector<std::string> parts =
        runWorkers(corpus, 4, "bad");
    const auto expectRejected = [](const std::vector<std::string> &set,
                                   const std::string &needle) {
        const RunResult r = runMerge("", set);
        EXPECT_EQ(r.exitCode, 2) << needle;
        EXPECT_TRUE(r.stdoutText.empty()) << r.stdoutText;
        EXPECT_NE(r.stderrText.find(needle), std::string::npos)
            << r.stderrText;
    };

    expectRejected({parts[0], parts[1], parts[2]}, "missing part 3/4");

    // A copy of `from` at `to`, with byte `at` XORed by `mask`.
    const auto mutatedCopy = [](const std::string &from,
                                const std::string &to, size_t at,
                                char mask) {
        std::ifstream in(from, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        ASSERT_GT(bytes.size(), at);
        bytes[at] = static_cast<char>(bytes[at] ^ mask);
        std::ofstream(to, std::ios::binary) << bytes;
    };
    // One flipped byte in the body fails the CRC; version word 2 -> 1
    // is a v1 report.
    const std::string corrupt = tempName("bad.corrupt");
    mutatedCopy(parts[2], corrupt, 40, 0x01);
    expectRejected({parts[0], parts[1], corrupt, parts[3]},
                   corrupt + ": report CRC mismatch");
    const std::string v1 = tempName("bad.v1");
    mutatedCopy(parts[2], v1, 8, 0x03);
    expectRejected({parts[0], parts[1], v1, parts[3]},
                   v1 + ": unsupported report version");

    // A duplicate index, a part of another split, another model,
    // another input, and a plain report each name the stray part.
    const std::string dup = tempName("bad.dup");
    mutatedCopy(parts[1], dup, 0, 0x00);
    expectRejected({parts[0], parts[1], parts[2], parts[3], dup},
                   dup + ": duplicate part 1/4");
    const std::vector<std::string> halves =
        runWorkers(corpus, 2, "half");
    expectRejected({parts[0], parts[1], parts[2], halves[1]},
                   halves[1] + ": part of a 2-way split");
    const std::vector<std::string> hops =
        runWorkers("--model=hops " + corpus, 4, "hops");
    expectRejected({parts[0], parts[1], parts[2], hops[3]},
                   hops[3] + ": model hops");
    const std::string other = tempName("other.trace");
    seedCorpus(other);
    const std::vector<std::string> foreign =
        runWorkers(other, 4, "foreign");
    expectRejected({parts[0], foreign[1], parts[2], parts[3]},
                   foreign[1] + ": input '" + other + "'");
    const std::string plain = tempName("bad.plain");
    run(std::string(PMTEST_CHECK_BIN) + " --quiet --report-out=" +
        plain + " " + corpus);
    expectRejected({plain}, plain + ": a plain report");

    // A trace is not a part, and a part is not a trace.
    expectRejected({corpus}, corpus + ": not a pmtest report");
    const RunResult as_trace =
        run(std::string(PMTEST_CHECK_BIN) + " " + parts[0]);
    EXPECT_EQ(as_trace.exitCode, 2) << as_trace.stdoutText;

    removeAll(parts);
    removeAll(halves);
    removeAll(hops);
    removeAll(foreign);
    removeAll({corpus, other, corrupt, v1, dup, plain});
}

TEST(DistributedCheckTest, WorkerModeEmitsWireReportNotStdout)
{
    const std::string corpus = tempName("worker.trace");
    seedCorpus(corpus);
    const std::string report = tempName("worker.report");

    const RunResult r = run(std::string(PMTEST_CHECK_BIN) +
                            " --worker=0/2 --report-out=" + report +
                            " " + corpus);
    EXPECT_TRUE(r.exitCode == 0 || r.exitCode == 1) << r.exitCode;
    EXPECT_TRUE(r.stdoutText.empty()) << r.stdoutText;

    pmtest::core::Report part;
    pmtest::core::ReportMeta meta;
    std::string error;
    ASSERT_TRUE(
        pmtest::core::loadReportFile(report, &part, &meta, &error))
        << error;
    EXPECT_EQ(meta.workerIndex, 0u);
    EXPECT_EQ(meta.workerCount, 2u);
    EXPECT_EQ(meta.label, corpus);
    std::remove(corpus.c_str());
    std::remove(report.c_str());
}

} // namespace
