#include "core/report.hh"

#include <algorithm>
#include <map>
#include <tuple>

#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace pmtest::core
{

const char *
findingKindName(FindingKind kind)
{
    // No default and no fallthrough return: -Wswitch makes the
    // compiler reject any FindingKind this switch does not name, so a
    // new kind can never render as "?".
    switch (kind) {
      case FindingKind::NotPersisted: return "not-persisted";
      case FindingKind::NotOrdered: return "not-ordered";
      case FindingKind::MissingLog: return "missing-log";
      case FindingKind::IncompleteTx: return "incomplete-tx";
      case FindingKind::UnmatchedTx: return "unmatched-tx";
      case FindingKind::RedundantFlush: return "redundant-flush";
      case FindingKind::UnnecessaryFlush: return "unnecessary-flush";
      case FindingKind::DuplicateLog: return "duplicate-log";
      case FindingKind::Malformed: return "malformed-trace";
    }
    panic("unknown FindingKind");
}

std::string
Finding::str() const
{
    std::string out = severity == Severity::Fail ? "FAIL" : "WARN";
    out += "(";
    out += findingKindName(kind);
    out += ") ";
    out += message;
    out += " @ ";
    out += loc.str();
    // The (fileId, traceId, opIndex) identity: without it, findings
    // from multi-file or sharded runs cannot be attributed to an
    // input trace.
    out += " [f";
    out += std::to_string(fileId);
    out += ":t";
    out += std::to_string(traceId);
    out += ":op";
    out += std::to_string(opIndex);
    out += "]";
    return out;
}

void
Report::add(Finding finding)
{
    if (finding.hint.valid())
        obs::count(obs::Counter::HintsSynthesized);
    findings_.push_back(std::move(finding));
}

size_t
Report::failCount() const
{
    size_t n = 0;
    for (const auto &f : findings_)
        if (f.severity == Severity::Fail)
            n++;
    return n;
}

size_t
Report::warnCount() const
{
    size_t n = 0;
    for (const auto &f : findings_)
        if (f.severity == Severity::Warn)
            n++;
    return n;
}

void
Report::merge(const Report &other)
{
    findings_.insert(findings_.end(), other.findings().begin(),
                     other.findings().end());
}

void
Report::merge(Report &&other)
{
    // Taking the vector into a local frees other's storage on return.
    std::vector<Finding> findings = std::move(other.findings_);
    other.findings_.clear();
    // Steal the buffer unless ours is already big enough (a caller
    // that reserved for a whole fold keeps its one allocation).
    if (findings_.empty() && findings_.capacity() < findings.size()) {
        findings_ = std::move(findings);
    } else {
        findings_.insert(findings_.end(),
                         std::make_move_iterator(findings.begin()),
                         std::make_move_iterator(findings.end()));
    }
}

void
Report::stampIdentity()
{
    for (auto &f : findings_) {
        f.traceId = traceId_;
        f.fileId = fileId_;
    }
}

void
Report::canonicalize()
{
    obs::SpanScope span(obs::Stage::ReportCanonicalize);
    const auto before = [](const Finding &a, const Finding &b) {
        if (a.fileId != b.fileId)
            return a.fileId < b.fileId;
        if (a.traceId != b.traceId)
            return a.traceId < b.traceId;
        return a.opIndex < b.opIndex;
    };
    if (std::is_sorted(findings_.begin(), findings_.end(), before))
        return;
    std::stable_sort(findings_.begin(), findings_.end(), before);
}

std::string
Report::str() const
{
    std::string out = "report for trace #" + std::to_string(traceId_) +
                      ": " + std::to_string(failCount()) + " FAIL, " +
                      std::to_string(warnCount()) + " WARN\n";
    for (const auto &f : findings_) {
        out += "  ";
        out += f.str();
        out += '\n';
    }
    return out;
}

std::vector<Report::SummaryLine>
Report::summary() const
{
    // Key: (severity, kind, file, line). File names come from
    // __FILE__ literals or interned names, which can be different
    // pointers to equal text; compare by content so findings from
    // reloaded traces group with live ones.
    using Key = std::tuple<int, int, std::string, uint32_t>;
    std::map<Key, SummaryLine> lines;
    for (const auto &f : findings_) {
        const Key key{static_cast<int>(f.severity),
                      static_cast<int>(f.kind),
                      f.loc.valid() ? f.loc.file : "", f.loc.line};
        auto it = lines.find(key);
        if (it == lines.end()) {
            lines.emplace(key, SummaryLine{f.severity, f.kind, f.loc,
                                           1, f.message});
        } else {
            it->second.count++;
        }
    }

    std::vector<SummaryLine> out;
    out.reserve(lines.size());
    for (auto &[key, line] : lines)
        out.push_back(std::move(line));
    std::sort(out.begin(), out.end(),
              [](const SummaryLine &a, const SummaryLine &b) {
                  if (a.severity != b.severity)
                      return a.severity == Severity::Fail;
                  return a.count > b.count;
              });
    return out;
}

std::string
Report::summaryStr() const
{
    const auto lines = summary();
    std::string out = "summary: " + std::to_string(failCount()) +
                      " FAIL, " + std::to_string(warnCount()) +
                      " WARN across " + std::to_string(lines.size()) +
                      " distinct sites\n";
    for (const auto &line : lines) {
        out += "  ";
        out += line.severity == Severity::Fail ? "FAIL" : "WARN";
        out += "(";
        out += findingKindName(line.kind);
        out += ") x";
        out += std::to_string(line.count);
        out += " @ ";
        out += line.loc.str();
        out += " — ";
        out += line.firstMessage;
        out += '\n';
    }
    return out;
}

} // namespace pmtest::core
