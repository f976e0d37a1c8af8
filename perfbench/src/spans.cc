#include "spans.hh"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "util/clock.hh"

namespace perfbench
{

namespace
{

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_nextId{1};

/** Owns every thread's buffer, so spans outlive their threads. */
struct Registry
{
    std::mutex mutex;
    std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

std::vector<SpanRecord> &
threadBuffer()
{
    thread_local std::vector<SpanRecord> *buffer = nullptr;
    if (buffer == nullptr) {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
        buffer = r.buffers.back().get();
        buffer->reserve(1 << 12);
    }
    return *buffer;
}

thread_local uint64_t t_current = 0;
thread_local uint64_t t_request = 0;

} // namespace

void
setSpansEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const char *name, uint64_t *duration_ns,
                       uint64_t request)
    : name_(name), durationNs_(duration_ns), request_(request)
{
    if (g_enabled.load(std::memory_order_relaxed)) {
        active_ = true;
        id_ = g_nextId.fetch_add(1, std::memory_order_relaxed);
        parent_ = t_current;
        t_current = id_;
        parentRequest_ = t_request;
        if (request_ == 0)
            request_ = t_request;
        t_request = request_;
    }
    start_ = pmtest::monotonicNanos();
}

ScopedSpan::~ScopedSpan()
{
    const uint64_t end = pmtest::monotonicNanos();
    if (durationNs_)
        *durationNs_ = end - start_;
    if (!active_)
        return;
    t_current = parent_;
    t_request = parentRequest_;
    threadBuffer().push_back(
        {name_, start_, end, id_, parent_, request_});
}

std::vector<SpanRecord>
collectSpans()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<SpanRecord> all;
    for (const auto &buffer : r.buffers)
        all.insert(all.end(), buffer->begin(), buffer->end());
    return all;
}

std::map<std::string, SpanSummary>
summarizeSpans(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<uint64_t, uint64_t> childNs;
    for (const auto &s : spans)
        if (s.parent != 0)
            childNs[s.parent] += s.duration();
    std::map<std::string, SpanSummary> out;
    for (const auto &s : spans) {
        SpanSummary &sum = out[s.name];
        const double d = static_cast<double>(s.duration());
        const auto it = childNs.find(s.id);
        const double covered =
            it == childNs.end() ? 0 : static_cast<double>(it->second);
        sum.count++;
        sum.totalNs += d;
        sum.selfNs += d - covered;
        sum.durationsNs.push_back(d);
    }
    return out;
}

bool
writeSpans(const std::string &path, const std::vector<SpanRecord> &spans,
           uint64_t request_sample)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const auto &s : spans) {
        if (s.request % request_sample != 0)
            continue;
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                     "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                     s.name, static_cast<unsigned long long>(s.start),
                     static_cast<unsigned long long>(s.end),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
