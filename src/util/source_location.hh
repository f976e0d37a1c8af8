/**
 * @file
 * Lightweight source location record attached to traced PM operations
 * and checkers, so that WARN/FAIL reports can point at the offending
 * `file:line` exactly as the paper's checking engine does.
 */

#ifndef PMTEST_UTIL_SOURCE_LOCATION_HH
#define PMTEST_UTIL_SOURCE_LOCATION_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace pmtest
{

/**
 * A (file, line) pair. The file name is a plain const char* with
 * static storage duration, so no ownership is needed and records stay
 * trivially copyable. This is the one ownership contract for location
 * strings: `file` is either a __FILE__ literal (live capture, via
 * PMTEST_HERE) or a name returned by internFileName() (every decoder
 * of trace files and report files). Nothing else may be stored here,
 * and nothing that holds a SourceLocation needs to keep its file name
 * alive.
 */
struct SourceLocation
{
    const char *file = "";
    uint32_t line = 0;

    constexpr SourceLocation() = default;
    constexpr SourceLocation(const char *f, uint32_t l) : file(f), line(l) {}

    /** Whether this record carries a real location. */
    constexpr bool valid() const { return line != 0; }

    /** Render as "file:line" (or "<unknown>" when unset). */
    std::string
    str() const
    {
        if (!valid())
            return "<unknown>";
        return std::string(file) + ":" + std::to_string(line);
    }
};

/**
 * The process-lifetime copy of the source-file name @p name: equal
 * names give the same pointer, from any thread, and the storage is
 * never freed, so the result lives as long as a __FILE__ literal.
 * Decoders call it once per string-table entry, never per op or per
 * finding. The table only grows: it holds each distinct name seen by
 * this process once (a handful in practice). Intern file names only,
 * never per-finding text such as messages.
 */
const char *internFileName(std::string_view name);

/** Convenience macro: the current source location. */
#define PMTEST_HERE ::pmtest::SourceLocation(__FILE__, __LINE__)

} // namespace pmtest

#endif // PMTEST_UTIL_SOURCE_LOCATION_HH
