/**
 * @file
 * In-memory span recording for the traced benchmark run. Spans are
 * taken only in the benchmark's own code, around its calls into each
 * PMTest layer; the program itself is not instrumented. Each thread
 * appends to its own buffer, so recording takes no lock; buffers are
 * read only after the recording threads have been joined.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** One finished span. Times are steady-clock nanoseconds. */
struct SpanRecord
{
    const char *name = "";
    uint64_t start = 0;
    uint64_t end = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  ///< id of the enclosing span, 0 for a root
    uint64_t request = 0; ///< request id shared by a request's spans

    uint64_t duration() const { return end - start; }
};

/** Turn recording on or off (off: ScopedSpan records nothing). */
void setSpansEnabled(bool on);

/**
 * Times a scope and, while recording is on, records it as a span. The
 * span's parent is the innermost span open on the same thread when it
 * starts, and a span given no request id takes its parent's. The
 * scope is timed either way, so traced and untraced runs differ only
 * by the recording.
 */
class ScopedSpan
{
  public:
    /** @p duration_ns, when given, receives the scope's duration. */
    explicit ScopedSpan(const char *name, uint64_t *duration_ns = nullptr,
                        uint64_t request = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_;
    uint64_t *durationNs_;
    uint64_t request_;
    uint64_t start_ = 0;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t parentRequest_ = 0;
    bool active_ = false;
};

/** Every span recorded so far, from all threads. */
std::vector<SpanRecord> collectSpans();

/** Per-name aggregate of a span set. */
struct SpanSummary
{
    uint64_t count = 0;
    double totalNs = 0;
    double selfNs = 0; ///< total minus the time child spans cover
    std::vector<double> durationsNs;
};

/** Aggregate @p spans by name (self time = duration - children). */
std::map<std::string, SpanSummary>
summarizeSpans(const std::vector<SpanRecord> &spans);

/**
 * Write @p spans as JSON lines (name, start, end, id, parent,
 * request): every span outside a request, and the spans of one request
 * in @p request_sample (requests whose id is a multiple of it), which
 * keeps the dump of a long online run to a few tens of MB.
 */
bool writeSpans(const std::string &path, const std::vector<SpanRecord> &spans,
                uint64_t request_sample);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
