#include "trace/trace_io.hh"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "trace/trace_reader.hh"

namespace pmtest
{
namespace
{

Trace
sampleTrace(uint64_t id)
{
    Trace t(id, 3);
    t.append(PmOp::write(0x100, 64, SourceLocation("a.cc", 10)));
    t.append(PmOp::clwb(0x100, 64, SourceLocation("a.cc", 11)));
    t.append(PmOp::sfence(SourceLocation("b.cc", 20)));
    t.append(PmOp::isOrderedBefore(0x100, 64, 0x200, 32,
                                   SourceLocation("a.cc", 12)));
    t.append(PmOp{OpType::TxAdd, 0x300, 16, 0, 0, {}}); // no loc
    return t;
}

std::string
tmpPath(const char *tag)
{
    return "/tmp/pmtest_trace_io_test_" + std::to_string(getpid()) +
           "_" + tag + ".bin";
}

/** Write @p bytes to a temp file and open it with the reader. */
std::unique_ptr<TraceFileReader>
openBytes(const std::string &bytes, std::string *error)
{
    const std::string path = tmpPath("bytes");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    auto reader = TraceFileReader::open(path, IngestMode::Auto, error);
    std::remove(path.c_str());
    return reader;
}

TEST(TraceIoTest, RoundTripPreservesEverything)
{
    std::vector<Trace> traces{sampleTrace(7), sampleTrace(8)};
    std::stringstream stream;
    const size_t bytes = saveTraces(stream, traces);
    EXPECT_GT(bytes, 0u);
    EXPECT_EQ(bytes, stream.str().size());

    std::string error;
    const auto reader = openBytes(stream.str(), &error);
    ASSERT_TRUE(reader) << error;
    ASSERT_EQ(reader->traceCount(), 2u);

    for (size_t t = 0; t < 2; t++) {
        const Trace &orig = traces[t];
        Trace got;
        ASSERT_TRUE(reader->decode(t, &got));
        EXPECT_EQ(got.id(), orig.id());
        EXPECT_EQ(got.threadId(), orig.threadId());
        ASSERT_EQ(got.size(), orig.size());
        for (size_t i = 0; i < orig.size(); i++) {
            const PmOp &a = orig.ops()[i];
            const PmOp &b = got.ops()[i];
            EXPECT_EQ(a.type, b.type) << "op " << i;
            EXPECT_EQ(a.addr, b.addr);
            EXPECT_EQ(a.size, b.size);
            EXPECT_EQ(a.addrB, b.addrB);
            EXPECT_EQ(a.sizeB, b.sizeB);
            EXPECT_EQ(a.loc.valid(), b.loc.valid());
            if (a.loc.valid()) {
                EXPECT_EQ(a.loc.str(), b.loc.str()) << "op " << i;
            }
        }
    }
}

TEST(TraceIoTest, DefaultFormatIsIndexedV2)
{
    std::stringstream stream;
    saveTraces(stream, {sampleTrace(1)});
    const std::string bytes = stream.str();
    ASSERT_GT(bytes.size(), TraceWire::kFooterBytes);
    uint32_t version = 0;
    std::memcpy(&version, bytes.data() + sizeof(uint64_t),
                sizeof(version));
    EXPECT_EQ(version, TraceWire::kVersion);
    uint64_t footer_magic = 0;
    std::memcpy(&footer_magic,
                bytes.data() + bytes.size() - sizeof(uint64_t),
                sizeof(uint64_t));
    EXPECT_EQ(footer_magic, TraceWire::kFooterMagic);
}

TEST(TraceIoTest, EmptyTraceListRoundTrips)
{
    std::stringstream stream;
    saveTraces(stream, {});
    std::string error;
    const auto reader = openBytes(stream.str(), &error);
    ASSERT_TRUE(reader) << error;
    EXPECT_EQ(reader->traceCount(), 0u);
}

TEST(TraceIoTest, GarbageInputRejected)
{
    std::string error;
    EXPECT_FALSE(openBytes("this is not a trace file at all; it is "
                           "just some text",
                           &error));
    EXPECT_FALSE(error.empty());
}

TEST(TraceIoTest, TruncatedInputRejected)
{
    std::stringstream full;
    saveTraces(full, {sampleTrace(1)});
    const std::string bytes = full.str();
    std::string error;
    EXPECT_FALSE(openBytes(bytes.substr(0, bytes.size() / 2), &error));
    EXPECT_FALSE(error.empty());
}

TEST(TraceIoTest, FileRoundTrip)
{
    const std::string path = tmpPath("file");
    ASSERT_TRUE(saveTracesToFile(path, {sampleTrace(42)}));
    std::string error;
    const auto reader =
        TraceFileReader::open(path, IngestMode::Auto, &error);
    ASSERT_TRUE(reader) << error;
    ASSERT_EQ(reader->traceCount(), 1u);
    Trace decoded;
    ASSERT_TRUE(reader->decode(0, &decoded));
    EXPECT_EQ(decoded.id(), 42u);
    std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileReported)
{
    EXPECT_FALSE(saveTracesToFile("/nonexistent/nowhere.bin",
                                  {sampleTrace(1)}));
    std::string error;
    EXPECT_FALSE(TraceFileReader::open("/nonexistent/nowhere.bin",
                                       IngestMode::Auto, &error));
    EXPECT_NE(error.find("/nonexistent/nowhere.bin"),
              std::string::npos)
        << error;
}

} // namespace
} // namespace pmtest
