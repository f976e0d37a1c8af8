#include "core/report_io.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string_view>
#include <unordered_map>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "trace/trace_io.hh"

namespace pmtest::core
{

namespace
{

constexpr size_t kMetaBytes = 4 + 4 + 8 + 8 + 8 + 4 + 4;
constexpr size_t kFindingBytes = 4 + 16 + 16 + 40 + 4 + 4;

constexpr uint8_t kHintWithFlush = 1u << 0;
constexpr uint8_t kHintVerified = 1u << 1;

constexpr uint8_t kMaxSeverity =
    static_cast<uint8_t>(Severity::Fail);
constexpr uint8_t kMaxFindingKind =
    static_cast<uint8_t>(FindingKind::Malformed);
constexpr uint8_t kMaxFixAction =
    static_cast<uint8_t>(FixAction::DeleteTxAdd);
constexpr uint8_t kMaxOpType = static_cast<uint8_t>(OpType::Include);
constexpr uint32_t kMaxModel = static_cast<uint32_t>(ModelKind::Arm);

void
putU8(std::string *out, uint8_t v)
{
    out->push_back(static_cast<char>(v));
}

void
putU16(std::string *out, uint16_t v)
{
    for (int i = 0; i < 2; i++)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU32(std::string *out, uint32_t v)
{
    for (int i = 0; i < 4; i++)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string *out, uint64_t v)
{
    for (int i = 0; i < 8; i++)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Bounds-checked little-endian reader over the report body. */
struct Reader
{
    const uint8_t *data;
    size_t len;
    size_t pos = 0;

    size_t remaining() const { return len - pos; }

    bool
    u8(uint8_t *v)
    {
        if (remaining() < 1)
            return false;
        *v = data[pos++];
        return true;
    }

    bool
    u16(uint16_t *v)
    {
        if (remaining() < 2)
            return false;
        *v = 0;
        for (int i = 0; i < 2; i++)
            *v |= static_cast<uint16_t>(data[pos + i]) << (8 * i);
        pos += 2;
        return true;
    }

    bool
    u32(uint32_t *v)
    {
        if (remaining() < 4)
            return false;
        *v = 0;
        for (int i = 0; i < 4; i++)
            *v |= static_cast<uint32_t>(data[pos + i]) << (8 * i);
        pos += 4;
        return true;
    }

    bool
    u64(uint64_t *v)
    {
        if (remaining() < 8)
            return false;
        *v = 0;
        for (int i = 0; i < 8; i++)
            *v |= static_cast<uint64_t>(data[pos + i]) << (8 * i);
        pos += 8;
        return true;
    }
};

/** Interns strings, assigning dense table indices in first-use order. */
struct StringTable
{
    std::vector<std::string_view> entries;
    std::unordered_map<std::string_view, uint32_t> index;

    uint32_t
    intern(std::string_view s)
    {
        const auto [it, inserted] =
            index.try_emplace(s, static_cast<uint32_t>(entries.size()));
        if (inserted)
            entries.push_back(s);
        return it->second;
    }
};

bool
failDecode(std::string *error, const char *reason)
{
    if (error)
        *error = reason;
    return false;
}

} // namespace

void
encodeReport(const Report &report, const ReportMeta &meta,
             std::string *out)
{
    // Intern the label, every message and every source-file name up
    // front so the string table precedes the findings in the body.
    StringTable table;
    const uint32_t label_idx = meta.label.empty()
                                   ? ReportWire::kNoString
                                   : table.intern(meta.label);
    std::vector<uint32_t> msg_idx, file_idx;
    msg_idx.reserve(report.findings().size());
    file_idx.reserve(report.findings().size());
    for (const Finding &f : report.findings()) {
        msg_idx.push_back(f.message.empty()
                              ? ReportWire::kNoString
                              : table.intern(f.message));
        const bool has_file = f.loc.file && f.loc.file[0] != '\0';
        file_idx.push_back(has_file ? table.intern(f.loc.file)
                                    : ReportWire::kNoString);
    }

    std::string body;
    putU32(&body, meta.workerIndex);
    putU32(&body, meta.workerCount);
    putU64(&body, meta.traceCount);
    putU64(&body, meta.totalOps);
    putU64(&body, meta.sourceCount);
    putU32(&body, static_cast<uint32_t>(meta.model));
    putU32(&body, label_idx);

    putU32(&body, static_cast<uint32_t>(table.entries.size()));
    for (const std::string_view s : table.entries) {
        putU32(&body, static_cast<uint32_t>(s.size()));
        body.append(s.data(), s.size());
    }

    putU64(&body, report.findings().size());
    for (size_t i = 0; i < report.findings().size(); i++) {
        const Finding &f = report.findings()[i];
        putU8(&body, static_cast<uint8_t>(f.severity));
        putU8(&body, static_cast<uint8_t>(f.kind));
        putU8(&body, static_cast<uint8_t>(f.hint.action));
        putU8(&body, (f.hint.withFlush ? kHintWithFlush : 0) |
                         (f.hint.verified ? kHintVerified : 0));
        putU32(&body, msg_idx[i]);
        putU32(&body, file_idx[i]);
        putU32(&body, f.loc.line);
        putU32(&body, f.fileId);
        putU64(&body, f.traceId);
        putU64(&body, f.opIndex);
        putU64(&body, f.hint.addr);
        putU64(&body, f.hint.size);
        putU64(&body, f.hint.addrB);
        putU64(&body, f.hint.sizeB);
        putU64(&body, f.hint.opIndex);
        putU8(&body, static_cast<uint8_t>(f.hint.flushOp));
        putU8(&body, static_cast<uint8_t>(f.hint.fenceOp));
        putU16(&body, 0); // reserved
        putU32(&body, f.hint.count);
    }

    putU64(out, ReportWire::kMagic);
    putU32(out, ReportWire::kVersion);
    putU32(out, 0); // reserved
    putU64(out, body.size());
    out->append(body);
    putU32(out, crc32(body.data(), body.size()));
    putU64(out, ReportWire::kFooterMagic);
}

bool
decodeReport(const void *data, size_t len, Report *report,
             ReportMeta *meta, std::string *error)
{
    Reader r{static_cast<const uint8_t *>(data), len};
    if (len < ReportWire::kHeaderBytes + ReportWire::kFooterBytes)
        return failDecode(error, "report truncated (header)");

    uint64_t magic = 0, body_len = 0;
    uint32_t version = 0, reserved = 0;
    r.u64(&magic);
    r.u32(&version);
    r.u32(&reserved);
    r.u64(&body_len);
    if (magic != ReportWire::kMagic)
        return failDecode(error, "not a pmtest report (bad magic)");
    if (version != ReportWire::kVersion)
        return failDecode(error, "unsupported report version");
    // The header sits outside the body CRC; within v1 the reserved
    // word must be zero so corruption there cannot pass unnoticed.
    if (reserved != 0)
        return failDecode(error, "bad report header");
    // Exact accounting: the body must fill everything between the
    // header and the footer — no truncation, no trailing junk.
    if (body_len !=
        len - ReportWire::kHeaderBytes - ReportWire::kFooterBytes)
        return failDecode(error, "report length mismatch");

    const uint8_t *body = r.data + r.pos;
    Reader footer{r.data, len, ReportWire::kHeaderBytes + body_len};
    uint32_t stored_crc = 0;
    uint64_t footer_magic = 0;
    footer.u32(&stored_crc);
    footer.u64(&footer_magic);
    if (footer_magic != ReportWire::kFooterMagic)
        return failDecode(error, "bad report footer");
    if (stored_crc != crc32(body, body_len))
        return failDecode(error, "report CRC mismatch");

    Reader b{body, static_cast<size_t>(body_len)};
    ReportMeta parsed_meta;
    uint32_t model = 0, label_idx = 0;
    if (!b.u32(&parsed_meta.workerIndex) ||
        !b.u32(&parsed_meta.workerCount) ||
        !b.u64(&parsed_meta.traceCount) ||
        !b.u64(&parsed_meta.totalOps) ||
        !b.u64(&parsed_meta.sourceCount) || !b.u32(&model) ||
        !b.u32(&label_idx))
        return failDecode(error, "report truncated (meta)");
    if (model > kMaxModel)
        return failDecode(error, "bad model in report");
    parsed_meta.model = static_cast<ModelKind>(model);

    uint32_t string_count = 0;
    if (!b.u32(&string_count))
        return failDecode(error, "report truncated (string table)");
    // Each entry carries at least its length field; reject counts the
    // remaining bytes cannot possibly hold before allocating.
    if (string_count > b.remaining() / 4)
        return failDecode(error, "bad string count in report");
    // Views into the input: messages and the label are copied out,
    // file names are interned the first time a finding uses them.
    std::vector<std::string_view> strings;
    strings.reserve(string_count);
    for (uint32_t i = 0; i < string_count; i++) {
        uint32_t slen = 0;
        if (!b.u32(&slen) || slen > b.remaining())
            return failDecode(error,
                              "report truncated (string table)");
        strings.emplace_back(
            reinterpret_cast<const char *>(b.data + b.pos), slen);
        b.pos += slen;
    }
    std::vector<const char *> file_names(string_count, nullptr);
    if (label_idx != ReportWire::kNoString) {
        if (label_idx >= strings.size())
            return failDecode(error, "bad string index in report");
        parsed_meta.label = strings[label_idx];
    }

    uint64_t finding_count = 0;
    if (!b.u64(&finding_count))
        return failDecode(error, "report truncated (findings)");
    if (finding_count > b.remaining() / kFindingBytes)
        return failDecode(error, "bad finding count in report");

    Report parsed;
    for (uint64_t i = 0; i < finding_count; i++) {
        uint8_t severity = 0, kind = 0, action = 0, flags = 0;
        uint32_t msg_idx = 0, file_name_idx = 0, line = 0,
                 file_id = 0;
        uint64_t trace_id = 0, op_index = 0, hint_op_index = 0;
        uint8_t flush_op = 0, fence_op = 0;
        uint16_t finding_reserved = 0;
        Finding f;
        if (!b.u8(&severity) || !b.u8(&kind) || !b.u8(&action) ||
            !b.u8(&flags) || !b.u32(&msg_idx) ||
            !b.u32(&file_name_idx) || !b.u32(&line) ||
            !b.u32(&file_id) || !b.u64(&trace_id) ||
            !b.u64(&op_index) || !b.u64(&f.hint.addr) ||
            !b.u64(&f.hint.size) || !b.u64(&f.hint.addrB) ||
            !b.u64(&f.hint.sizeB) || !b.u64(&hint_op_index) ||
            !b.u8(&flush_op) || !b.u8(&fence_op) ||
            !b.u16(&finding_reserved) || !b.u32(&f.hint.count))
            return failDecode(error, "report truncated (findings)");
        if (severity > kMaxSeverity || kind > kMaxFindingKind ||
            action > kMaxFixAction || flush_op > kMaxOpType ||
            fence_op > kMaxOpType)
            return failDecode(error, "bad enum value in report");
        if (msg_idx != ReportWire::kNoString &&
            msg_idx >= strings.size())
            return failDecode(error, "bad string index in report");
        if (file_name_idx != ReportWire::kNoString &&
            file_name_idx >= strings.size())
            return failDecode(error, "bad string index in report");
        f.severity = static_cast<Severity>(severity);
        f.kind = static_cast<FindingKind>(kind);
        f.hint.action = static_cast<FixAction>(action);
        f.hint.withFlush = (flags & kHintWithFlush) != 0;
        f.hint.verified = (flags & kHintVerified) != 0;
        if (msg_idx != ReportWire::kNoString)
            f.message = strings[msg_idx];
        if (file_name_idx != ReportWire::kNoString) {
            const char *&name = file_names[file_name_idx];
            if (!name)
                name = internFileName(strings[file_name_idx]);
            f.loc.file = name;
        }
        f.loc.line = line;
        f.fileId = file_id;
        f.traceId = trace_id;
        f.opIndex = op_index;
        f.hint.opIndex = hint_op_index;
        f.hint.flushOp = static_cast<OpType>(flush_op);
        f.hint.fenceOp = static_cast<OpType>(fence_op);
        parsed.add(std::move(f));
    }
    if (b.remaining() != 0)
        return failDecode(error, "trailing bytes in report body");

    // Full success: publish. Nothing points into the input bytes.
    *report = std::move(parsed);
    if (meta)
        *meta = std::move(parsed_meta);
    return true;
}

bool
saveReportFile(const std::string &path, const Report &report,
               const ReportMeta &meta, std::string *error)
{
    std::string bytes;
    encodeReport(report, meta, &bytes);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        if (error)
            *error = "cannot write " + path;
        return false;
    }
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    const bool closed = std::fclose(f) == 0;
    if ((!ok || !closed) && error)
        *error = "cannot write " + path;
    return ok && closed;
}

bool
loadReportFile(const std::string &path, Report *report,
               ReportMeta *meta, std::string *error)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        if (error)
            *error = path + ": cannot open";
        return false;
    }
    // One buffer sized from the file length, filled by one read (the
    // loop only resumes a short or interrupted read). Parts are
    // regular files; anything else is a read error.
    struct stat st {};
    bool read_ok = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
    const size_t size = read_ok ? static_cast<size_t>(st.st_size) : 0;
    auto bytes = std::make_unique_for_overwrite<char[]>(size);
    for (size_t done = 0; read_ok && done < size;) {
        const ssize_t n = ::read(fd, bytes.get() + done, size - done);
        if (n < 0 && errno == EINTR)
            continue;
        read_ok = n > 0;
        if (read_ok)
            done += static_cast<size_t>(n);
    }
    ::close(fd);
    if (!read_ok) {
        if (error)
            *error = path + ": read error";
        return false;
    }
    std::string reason;
    if (!decodeReport(bytes.get(), size, report, meta, &reason)) {
        if (error)
            *error = path + ": " + reason;
        return false;
    }
    return true;
}

bool
mergeReports(std::vector<WorkerReport> parts, Report *merged,
             ReportMeta *meta, std::string *error)
{
    const auto fail = [&](std::string message) {
        if (error)
            *error = std::move(message);
        return false;
    };
    if (parts.empty())
        return fail("no report parts to merge");
    const WorkerReport &first = parts.front();
    const uint32_t n = first.meta.workerCount;
    for (const WorkerReport &part : parts) {
        const ReportMeta &m = part.meta;
        if (m.workerCount == 0)
            return fail(part.path +
                        ": a plain report, not a --worker part");
        if (m.workerCount != n)
            return fail(part.path + ": part of a " +
                        std::to_string(m.workerCount) +
                        "-way split, but " + first.path +
                        " is of a " + std::to_string(n) + "-way split");
        if (m.model != first.meta.model)
            return fail(part.path + ": model " +
                        makeModel(m.model)->name() + ", but " +
                        first.path + " has model " +
                        makeModel(first.meta.model)->name());
        if (m.label != first.meta.label)
            return fail(part.path + ": input '" + m.label + "', but " +
                        first.path + " has input '" +
                        first.meta.label + "'");
        if (m.workerIndex >= n)
            return fail(part.path + ": worker index " +
                        std::to_string(m.workerIndex) +
                        " out of range for " + std::to_string(n) +
                        " parts");
    }

    std::stable_sort(parts.begin(), parts.end(),
                     [](const WorkerReport &a, const WorkerReport &b) {
                         return a.meta.workerIndex <
                                b.meta.workerIndex;
                     });
    for (size_t i = 1; i < parts.size(); i++) {
        if (parts[i].meta.workerIndex == parts[i - 1].meta.workerIndex)
            return fail(parts[i].path + ": duplicate part " +
                        std::to_string(parts[i].meta.workerIndex) +
                        "/" + std::to_string(n) + " (also in " +
                        parts[i - 1].path + ")");
    }
    // Sorted and duplicate-free: index i sits at position i until
    // the first gap.
    for (uint32_t i = 0; i < n; i++) {
        if (i >= parts.size() || parts[i].meta.workerIndex != i)
            return fail("missing part " + std::to_string(i) + "/" +
                        std::to_string(n));
    }

    Report out;
    ReportMeta totals;
    totals.workerCount = n;
    totals.model = parts.front().meta.model;
    totals.label = parts.front().meta.label;
    for (WorkerReport &part : parts) {
        out.merge(std::move(part.report));
        totals.traceCount += part.meta.traceCount;
        totals.totalOps += part.meta.totalOps;
        totals.sourceCount += part.meta.sourceCount;
    }
    out.canonicalize();
    *merged = std::move(out);
    if (meta)
        *meta = std::move(totals);
    return true;
}

} // namespace pmtest::core
