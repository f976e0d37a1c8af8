/**
 * @file
 * Report serialization: the `pmtest-report-v2` wire format that lets
 * a checking session's canonical Report cross a process (or machine)
 * boundary. A `pmtest_check --worker=i/N` process serializes its
 * shard's report with saveReportFile; `pmtest_check --merge PART...`
 * parses every part with loadReportFile and folds them with
 * mergeReports into the exact canonical report a sequential
 * single-process run prints.
 *
 * Wire format (little-endian, versioned, CRC-checked like trace v2):
 *
 *   file   := magic u64, version u32 (=2), reserved u32,
 *             body_len u64, body[body_len], body_crc32 u32,
 *             footer_magic u64
 *   body   := meta, string_table, finding*
 *   meta   := worker_index u32, worker_count u32, trace_count u64,
 *             total_ops u64, source_count u64, model u32,
 *             label_idx u32
 *   string_table := count u32, (len u32, bytes)*
 *   finding := severity u8, kind u8, hint_action u8, hint_flags u8,
 *              msg_idx u32, loc_file_idx u32, loc_line u32,
 *              file_id u32, trace_id u64, op_index u64,
 *              hint_addr u64, hint_size u64, hint_addr_b u64,
 *              hint_size_b u64, hint_op_index u64,
 *              hint_flush_op u8, hint_fence_op u8, reserved u16,
 *              hint_count u32
 *
 * Messages, source-file names and the run's input label (the header
 * name: the path, or "N files") are interned in the string table;
 * kNoString marks an absent entry. hint_flags packs withFlush
 * (bit 0) and verified (bit 1). Version 1 lacked the label and is
 * rejected.
 *
 * Fail-closed parsing: decodeReport validates the magics, the exact
 * length accounting (body_len must match the input size to the
 * byte — no trailing junk), the body CRC32, every enum value and
 * every string index before anything is visible to the caller; a
 * truncated or bit-flipped file never produces a partial Report.
 * Parsed findings own their messages and point their locations at
 * interned file names (internFileName), so a loaded report outlives
 * the bytes it was parsed from, like one from the live pipeline.
 */

#ifndef PMTEST_CORE_REPORT_IO_HH
#define PMTEST_CORE_REPORT_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/persistency_model.hh"
#include "core/report.hh"

namespace pmtest::core
{

/** Wire-format constants shared by the writer, parser and tests. */
struct ReportWire
{
    /** Leading file magic ("PMREPORT"). */
    static constexpr uint64_t kMagic = 0x54524f5045524d50ULL;
    /** Trailing footer magic ("PMR1END."). */
    static constexpr uint64_t kFooterMagic = 0x2e444e4531524d50ULL;
    /** The only version this build writes and reads. */
    static constexpr uint32_t kVersion = 2;
    /** magic u64 + version u32 + reserved u32 + body_len u64. */
    static constexpr size_t kHeaderBytes = 24;
    /** body_crc32 u32 + footer_magic u64. */
    static constexpr size_t kFooterBytes = 12;
    /** String-table index marking an absent message/file name. */
    static constexpr uint32_t kNoString = 0xffffffffu;
};

/**
 * Run identity and source totals carried alongside the findings, so
 * a merge can reconstruct the sequential run's header line (input
 * label, traces, ops, model) without reopening any input.
 */
struct ReportMeta
{
    uint32_t workerIndex = 0;
    uint32_t workerCount = 0; ///< 0 = a plain report, not a part
    uint64_t traceCount = 0;
    uint64_t totalOps = 0;
    uint64_t sourceCount = 0;
    ModelKind model = ModelKind::X86;
    /** The whole input set's header name: the path, or "N files". */
    std::string label;
};

/** Serialize @p report + @p meta, appending the framed bytes to @p out. */
void encodeReport(const Report &report, const ReportMeta &meta,
                  std::string *out);

/**
 * Parse one wire report. All-or-nothing: on any validation failure
 * @p report and @p meta are left untouched, @p error (when provided)
 * describes the first violation, and false is returned.
 */
bool decodeReport(const void *data, size_t len, Report *report,
                  ReportMeta *meta, std::string *error = nullptr);

/** encodeReport to @p path. @return false with @p error set on IO failure. */
bool saveReportFile(const std::string &path, const Report &report,
                    const ReportMeta &meta,
                    std::string *error = nullptr);

/**
 * Read and decodeReport @p path (fail-closed; see decodeReport).
 * @return false with @p error set ("<path>: <reason>") on failure.
 */
bool loadReportFile(const std::string &path, Report *report,
                    ReportMeta *meta, std::string *error = nullptr);

/** One gathered worker report. */
struct WorkerReport
{
    Report report;
    ReportMeta meta;
    /** Where the part came from; names it in merge errors. */
    std::string path;
};

/**
 * Fold the parts of one N-way worker split into one canonical
 * report. Fails closed unless the parts are exactly worker reports
 * 0..N-1 of the same split: every part has the same workerCount N
 * (> 0), model and label, and each index appears once. On success
 * the parts are ordered by workerIndex before merging, so any gather
 * order produces byte-identical canonical output; totals (traces,
 * ops, sources) sum, and the merged meta carries N, the model and
 * the label. @return false with @p error naming the offending part
 * (or the missing index) and the outputs untouched.
 */
bool mergeReports(std::vector<WorkerReport> parts, Report *merged,
                  ReportMeta *meta, std::string *error = nullptr);

} // namespace pmtest::core

#endif // PMTEST_CORE_REPORT_IO_HH
