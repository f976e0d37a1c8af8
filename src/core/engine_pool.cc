#include "core/engine_pool.hh"

#include <algorithm>
#include <sstream>

#include "obs/telemetry.hh"

namespace pmtest::core
{

std::string
PoolStats::str() const
{
    std::ostringstream out;
    out << "pool: " << tracesSubmitted << " submitted, "
        << tracesCompleted << " completed, " << batchesSubmitted
        << " batches, " << queuedTraces << " queued, producer stalled "
        << static_cast<double>(producerStallNanos) * 1e-6 << " ms"
        << " (capacity "
        << (queueCapacity ? std::to_string(queueCapacity) : "unbounded")
        << ")\n";
    if (ingest.active) {
        out << "ingest: " << ingest.bytesMapped << " bytes "
            << (ingest.mmapBacked ? "mmapped" : "buffered")
            << " from " << ingest.sources << " source(s), "
            << ingest.tracesDecoded << " traces decoded on "
            << ingest.decoders << " decoder(s), decode "
            << static_cast<double>(ingest.decodeNanos) * 1e-6
            << " ms, ingest stalled "
            << static_cast<double>(ingest.stallNanos) * 1e-6
            << " ms\n";
    }
    for (size_t i = 0; i < workers.size(); i++) {
        const WorkerStats &w = workers[i];
        out << "  worker " << i << ": " << w.tracesChecked
            << " traces, " << w.opsProcessed << " ops\n";
    }
    return out.str();
}

EnginePool::EnginePool(const PoolOptions &options)
    : queue_(options.queueCapacity)
{
    if (options.workers == 0) {
        inlineEngine_ = std::make_unique<Engine>(options.model);
        return;
    }
    workers_.reserve(options.workers);
    for (size_t i = 0; i < options.workers; i++) {
        auto w = std::make_unique<Worker>(options.model);
        Worker *raw = w.get();
        raw->thread = std::thread([this, raw, i] {
            obs::nameThread("pool-worker-" + std::to_string(i));
            while (std::optional<Trace> trace = queue_.pop())
                checkOn(*raw, std::move(*trace));
        });
        workers_.push_back(std::move(w));
    }
}

EnginePool::EnginePool(ModelKind kind, size_t workers)
    : EnginePool(PoolOptions{kind, workers})
{
}

EnginePool::~EnginePool()
{
    // Workers drain what is queued, then see the closed queue and
    // exit; closing also releases a producer blocked on a full queue
    // (no new submissions may race destruction).
    queue_.close();
    for (auto &w : workers_)
        w->thread.join();
}

void
EnginePool::checkOn(Worker &worker, Trace trace)
{
    Report report = worker.engine.check(trace);
    worker.opsProcessed.store(worker.engine.opsProcessed(),
                              std::memory_order_relaxed);
    worker.tracesChecked.store(worker.engine.tracesChecked(),
                               std::memory_order_relaxed);
    recordResult(std::move(report));
}

void
EnginePool::recordResult(Report report)
{
    obs::count(obs::Counter::ReportsMerged);
    bool drained;
    {
        std::lock_guard<std::mutex> lock(resultMutex_);
        // Only a push under the lock; the merge waits for the drain.
        // A clean report has no findings, so it is not kept.
        if (!report.clean())
            pending_.push_back(std::move(report));
        completed_++;
        // The drain predicate can only turn true at the moment the
        // counters meet; notifying on every completion wakes blocked
        // drainers thousands of times for nothing.
        drained = completed_ == submitted_;
    }
    if (drained)
        drainCv_.notify_all();
}

void
EnginePool::checkInline(Trace trace)
{
    Report report;
    {
        std::lock_guard<std::mutex> lock(inlineMutex_);
        report = inlineEngine_->check(trace);
    }
    recordResult(std::move(report));
}

void
EnginePool::submit(Trace trace)
{
    obs::count(obs::Counter::TracesSubmitted);
    {
        std::lock_guard<std::mutex> lock(resultMutex_);
        submitted_++;
    }

    if (workers_.empty()) {
        // Inline (coupled) mode: check on the calling thread.
        checkInline(std::move(trace));
        return;
    }

    noteStall(queue_.push(std::move(trace)));
}

void
EnginePool::submitBatch(std::vector<Trace> traces)
{
    if (traces.empty())
        return;
    obs::SpanScope span(obs::Stage::PoolSubmit);
    obs::count(obs::Counter::TracesSubmitted, traces.size());
    obs::count(obs::Counter::BatchesSubmitted);
    {
        std::lock_guard<std::mutex> lock(resultMutex_);
        submitted_ += traces.size();
    }
    batches_.fetch_add(1, std::memory_order_relaxed);

    if (workers_.empty()) {
        for (auto &t : traces)
            checkInline(std::move(t));
        return;
    }

    noteStall(queue_.pushAll(std::move(traces)));
}

void
EnginePool::noteStall(uint64_t stall_ns)
{
    if (stall_ns == 0)
        return;
    obs::count(obs::Counter::SubmitStalls);
    obs::spanEndingNow(obs::Stage::PoolStall, stall_ns);
}

void
EnginePool::drain()
{
    std::unique_lock<std::mutex> lock(resultMutex_);
    drainCv_.wait(lock, [this] { return completed_ == submitted_; });
}

Report
EnginePool::results()
{
    // Wait and snapshot under one lock: traces submitted while we
    // wait extend the wait, but nothing can complete between the
    // predicate turning true and the copy.
    std::unique_lock<std::mutex> lock(resultMutex_);
    drainCv_.wait(lock, [this] { return completed_ == submitted_; });
    foldPending();
    return aggregate_;
}

void
EnginePool::clearResults()
{
    std::unique_lock<std::mutex> lock(resultMutex_);
    drainCv_.wait(lock, [this] { return completed_ == submitted_; });
    pending_.clear();
    aggregate_ = Report();
}

Report
EnginePool::takeResults()
{
    std::unique_lock<std::mutex> lock(resultMutex_);
    drainCv_.wait(lock, [this] { return completed_ == submitted_; });
    foldPending();
    Report out = std::move(aggregate_);
    aggregate_ = Report();
    return out;
}

void
EnginePool::foldPending()
{
    // One span per fold, also an empty one: a clean run still has
    // its (trivial) merge stage.
    obs::SpanScope span(obs::Stage::ReportMerge);
    if (pending_.empty())
        return;
    // Stable: reports sharing a (fileId, traceId) keep completion
    // order, exactly as the per-trace merge left them.
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const Report &a, const Report &b) {
                         if (a.fileId() != b.fileId())
                             return a.fileId() < b.fileId();
                         return a.traceId() < b.traceId();
                     });
    size_t total = aggregate_.findings().size();
    for (const Report &r : pending_)
        total += r.findings().size();
    aggregate_.mutableFindings().reserve(total);
    for (Report &r : pending_)
        aggregate_.merge(std::move(r)); // frees r's storage
    std::vector<Report>().swap(pending_);
}

PoolStats
EnginePool::stats() const
{
    PoolStats stats;
    stats.queueCapacity = queue_.capacity();
    stats.queuedTraces = queue_.size();
    stats.batchesSubmitted = batches_.load(std::memory_order_relaxed);
    stats.producerStallNanos = queue_.producerStallNanos();
    {
        std::lock_guard<std::mutex> lock(resultMutex_);
        stats.tracesSubmitted = submitted_;
        stats.tracesCompleted = completed_;
    }
    if (workers_.empty()) {
        std::lock_guard<std::mutex> lock(inlineMutex_);
        WorkerStats w;
        w.tracesChecked = inlineEngine_->tracesChecked();
        w.opsProcessed = inlineEngine_->opsProcessed();
        stats.workers.push_back(w);
        return stats;
    }
    for (const auto &worker : workers_) {
        WorkerStats w;
        w.tracesChecked =
            worker->tracesChecked.load(std::memory_order_relaxed);
        w.opsProcessed =
            worker->opsProcessed.load(std::memory_order_relaxed);
        stats.workers.push_back(w);
    }
    return stats;
}

uint64_t
EnginePool::tracesChecked() const
{
    if (workers_.empty()) {
        std::lock_guard<std::mutex> lock(inlineMutex_);
        return inlineEngine_->tracesChecked();
    }
    uint64_t total = 0;
    for (const auto &w : workers_)
        total += w->tracesChecked.load(std::memory_order_relaxed);
    return total;
}

uint64_t
EnginePool::opsProcessed() const
{
    if (workers_.empty()) {
        std::lock_guard<std::mutex> lock(inlineMutex_);
        return inlineEngine_->opsProcessed();
    }
    uint64_t total = 0;
    for (const auto &w : workers_)
        total += w->opsProcessed.load(std::memory_order_relaxed);
    return total;
}

} // namespace pmtest::core
