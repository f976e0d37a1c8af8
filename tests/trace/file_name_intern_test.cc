/**
 * @file
 * internFileName, the one owner of decoded source-file names: equal
 * names share one pointer from any thread, distinct names (up to the
 * trace format's name-length cap) stay distinct, and an interned name
 * outlives the buffers and the reader it was decoded from.
 */

#include "util/source_location.hh"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "trace/trace_io.hh"
#include "trace/trace_reader.hh"

namespace pmtest
{
namespace
{

TEST(FileNameInternTest, EqualNamesShareOnePointerAcrossThreads)
{
    constexpr size_t kThreads = 4;
    constexpr size_t kRounds = 2000;
    std::vector<std::vector<const char *>> seen(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; t++) {
        threads.emplace_back([t, &seen] {
            // A fresh buffer per call: the pointer must not depend on
            // where the caller's bytes live.
            for (size_t i = 0; i < kRounds; i++) {
                const std::string name = "shared_intern.cc";
                seen[t].push_back(internFileName(name));
                internFileName("thread_" + std::to_string(t) + ".cc");
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    const char *const shared = internFileName("shared_intern.cc");
    EXPECT_STREQ(shared, "shared_intern.cc");
    for (size_t t = 0; t < kThreads; t++) {
        ASSERT_EQ(seen[t].size(), kRounds);
        for (const char *p : seen[t])
            ASSERT_EQ(p, shared) << "thread " << t;
        EXPECT_STREQ(internFileName("thread_" + std::to_string(t) +
                                    ".cc"),
                     ("thread_" + std::to_string(t) + ".cc").c_str());
    }
}

TEST(FileNameInternTest, DistinctNamesGetDistinctPointers)
{
    const std::string longest(TraceWire::kMaxNameLen, 'x');
    std::string longest_other = longest;
    longest_other.back() = 'y';
    const std::vector<std::string> names = {
        "", "a.cc", "a.c", "a.cc ", "b.cc", "dir/a.cc",
        std::string("nul\0inside", 10), longest, longest_other};

    std::set<const char *> pointers;
    for (const std::string &name : names) {
        const char *p = internFileName(name);
        EXPECT_EQ(std::memcmp(p, name.data(), name.size()), 0);
        EXPECT_EQ(p[name.size()], '\0') << "names are NUL-terminated";
        EXPECT_EQ(internFileName(name), p) << "interning is stable";
        pointers.insert(p);
    }
    EXPECT_EQ(pointers.size(), names.size());
    EXPECT_EQ(std::strlen(internFileName(longest)),
              TraceWire::kMaxNameLen);
}

TEST(FileNameInternTest, TracesFromTwoReadersShareNamesAndOutliveThem)
{
    const std::string path = "/tmp/pmtest_file_name_intern_test_" +
                             std::to_string(getpid()) + ".bin";
    std::vector<Trace> traces;
    for (uint64_t id = 0; id < 3; id++) {
        Trace t(id, 0);
        t.append(PmOp::write(0x100, 64,
                             SourceLocation("decoded_intern.c", 7)));
        t.append(PmOp::sfence(SourceLocation("other_intern.c", 8)));
        traces.push_back(t);
    }
    ASSERT_TRUE(saveTracesToFile(path, traces));

    // Each trace body carries its own copy of the name on the wire;
    // two readers decode them. All must land on the one interned name.
    std::vector<Trace> decoded;
    for (int pass = 0; pass < 2; pass++) {
        std::string error;
        auto reader =
            TraceFileReader::open(path, IngestMode::Auto, &error);
        ASSERT_TRUE(reader) << error;
        for (size_t i = 0; i < reader->traceCount(); i++) {
            Trace trace;
            ASSERT_TRUE(reader->decode(i, &trace));
            decoded.push_back(std::move(trace));
        }
    }
    std::remove(path.c_str());

    const char *const name = internFileName("decoded_intern.c");
    ASSERT_EQ(decoded.size(), 2 * traces.size());
    for (const Trace &trace : decoded) {
        ASSERT_EQ(trace.size(), 2u);
        EXPECT_EQ(trace.ops()[0].loc.file, name);
        EXPECT_EQ(trace.ops()[1].loc.file,
                  internFileName("other_intern.c"));
        EXPECT_EQ(trace.ops()[0].loc.str(), "decoded_intern.c:7");
    }
}

} // namespace
} // namespace pmtest
