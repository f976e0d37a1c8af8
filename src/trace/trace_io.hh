/**
 * @file
 * Trace serialization: save recorded traces to a compact, indexed
 * binary file. This enables the record-once/check-offline workflow —
 * capture a production run's PM operations with tracking enabled,
 * then replay the traces through the checking engine (or a baseline
 * tool) without re-running the program. Files are read back by
 * `TraceFileReader` (trace_reader.hh); it is the only reader.
 *
 * Wire format (little-endian, version 2):
 *
 *   file   := magic u64, version u32 (=2), trace_count u32,
 *             frame*, index, tail
 *   frame  := frame_len u64, body[frame_len]
 *   body   := id u64, thread_id u32, op_count u32, string_table, op*
 *   string_table := count u32, (len u32, bytes)*   (file names)
 *   op     := type u8, file_idx u32, line u32, addr u64, size u64,
 *             addrB u64, sizeB u64
 *   index  := trace_count x { offset u64, op_count u32, thread_id u32 }
 *             (offset = absolute position of the frame_len field)
 *   tail   := index_offset u64, index_crc32 u32, trace_count u32,
 *             footer_magic u64
 *
 * The byte-length framing turns one trace into a self-contained
 * decode unit, and the index footer (validated by magic + CRC32 +
 * exact size accounting) lets the reader map the file and decode
 * traces in parallel without scanning. Version 1 (unframed bodies,
 * no index) is no longer read: the reader rejects it.
 *
 * File-name strings are deduplicated per trace body on the wire; the
 * decoder points each op's SourceLocation at the process-wide interned
 * copy (internFileName, util/source_location.hh), so a decoded trace
 * owns no strings and outlives nothing.
 */

#ifndef PMTEST_TRACE_TRACE_IO_HH
#define PMTEST_TRACE_TRACE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace pmtest
{

/** Wire-format constants shared by the writer and the indexed reader. */
struct TraceWire
{
    /** Leading file magic ("PMTESTT"). */
    static constexpr uint64_t kMagic = 0x504d5445535454ULL;
    /** The format version saveTraces writes and the reader accepts. */
    static constexpr uint32_t kVersion = 2;
    /** v2 footer magic ("PMT2IDX"). */
    static constexpr uint64_t kFooterMagic = 0x58444932544d50ULL;
    /** magic u64 + version u32 + trace_count u32. */
    static constexpr size_t kHeaderBytes = 16;
    /** offset u64 + op_count u32 + thread_id u32. */
    static constexpr size_t kIndexEntryBytes = 16;
    /** index_offset u64 + crc u32 + trace_count u32 + magic u64. */
    static constexpr size_t kFooterBytes = 24;
    /** Longest file name a body may carry (decode rejects longer). */
    static constexpr uint32_t kMaxNameLen = 1u << 20;
};

/** CRC32 (IEEE 802.3, reflected) of a byte range. */
uint32_t crc32(const void *data, size_t len);

/**
 * Encode one trace's body (the framed payload, without the length
 * prefix) and append it to @p buf. Shared by saveTraces and tests
 * that hand-build trace files.
 */
void encodeTraceBody(const Trace &trace, std::string *buf);

/**
 * Decode one trace body from memory with strict bounds checking:
 * never reads past data+len, and fails (returning false) on any
 * malformed field instead of guessing. Each string-table entry is
 * interned once (internFileName), and the decoded ops point at the
 * interned names.
 */
bool decodeTraceBody(const uint8_t *data, size_t len, Trace *out);

/** Serialize traces to a binary stream. @return bytes written. */
size_t saveTraces(std::ostream &out, const std::vector<Trace> &traces);

/** Convenience: save to a file path. @return false on I/O error. */
bool saveTracesToFile(const std::string &path,
                      const std::vector<Trace> &traces);

} // namespace pmtest

#endif // PMTEST_TRACE_TRACE_IO_HH
