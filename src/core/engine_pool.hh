/**
 * @file
 * The multithreaded checking mechanism (paper §4.4, Fig. 8): traces
 * sealed by the program under test go into one FIFO that a team of
 * worker threads drains, each running its own Engine; results flow
 * back to a shared result collector. PMTest_GET_RESULT() maps to
 * drain(). A zero-worker pool checks traces inline on the caller —
 * the configuration used by the decoupling ablation.
 *
 * Result collection is folded at drain, not merged per trace: a
 * finished trace only moves its report (if it has findings) onto a
 * pending list under resultMutex_. results()/takeResults() sort that
 * list by (fileId, traceId), reserve once and move-merge it into the
 * aggregate, freeing each per-trace report as it goes. No finding is
 * copied on the way, and since each trace's findings are in op
 * order, a take normally comes out already canonical.
 *
 * Dispatch is a single bounded ConcurrentQueue shared by all workers:
 *  - submit() pushes one trace, submitBatch() pushes many under one
 *    lock acquisition (the paper's §4.2 "divide the program into
 *    sections for better testing speed"). Every worker pops the next
 *    trace whenever it is idle, so one giant trace occupies one
 *    worker and never holds back the small traces queued behind it.
 *  - The queue bound (PoolOptions::queueCapacity) caps the total
 *    number of queued traces. A full queue blocks the producer —
 *    bounded backpressure instead of unbounded memory growth when
 *    the program outruns its checkers — and the queue's own stall
 *    clock becomes PoolStats::producerStallNanos.
 *  - stats() snapshots the queue depth, producer stall time and
 *    per-worker throughput, so the Fig. 10/11 harnesses can report
 *    *why* a configuration is fast.
 */

#ifndef PMTEST_CORE_ENGINE_POOL_HH
#define PMTEST_CORE_ENGINE_POOL_HH

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hh"
#include "trace/concurrent_queue.hh"

namespace pmtest::core
{

/** EnginePool construction parameters. */
struct PoolOptions
{
    /** Persistency model all engines use. */
    ModelKind model = ModelKind::X86;
    /** Number of worker threads; 0 = inline checking. */
    size_t workers = 1;
    /**
     * Bound on the traces queued for the workers; a full queue blocks
     * the producer (backpressure). The default caps the backlog a
     * stalled checker can pin at the same total for any worker
     * count. 0 = unbounded.
     */
    size_t queueCapacity = 1024;
};

/** Point-in-time dispatch statistics for one worker. */
struct WorkerStats
{
    uint64_t tracesChecked = 0; ///< traces this worker completed
    uint64_t opsProcessed = 0;  ///< PM ops this worker processed
};

/**
 * Counters for the ingest stage feeding a pool (the offline
 * pmtest_check pipeline): filled by core::ingest() and carried
 * here so one PoolStats snapshot describes the whole load→verdict
 * pipeline — how the bytes came in, how long decoding took, and how
 * long decoders stalled on the pool's backpressure.
 */
struct IngestStats
{
    bool active = false;      ///< an ingest stage ran (renders stats)
    bool mmapBacked = false;  ///< all bytes were mmap'd (vs buffers)
    uint32_t decoders = 0;    ///< decoder threads used
    size_t sources = 1;       ///< leaf sources (files/shards) drained
    uint64_t bytesMapped = 0; ///< file bytes mapped/buffered
    uint64_t tracesDecoded = 0;
    uint64_t decodeNanos = 0; ///< summed decode time across decoders
    uint64_t stallNanos = 0;  ///< summed time decoders were blocked
                              ///< submitting into the full pool queue
};

/** Point-in-time snapshot of the pool's dispatch behaviour. */
struct PoolStats
{
    std::vector<WorkerStats> workers;
    IngestStats ingest;             ///< offline file-ingest counters
    uint64_t tracesSubmitted = 0;   ///< traces accepted by submit*()
    uint64_t tracesCompleted = 0;   ///< traces fully checked
    uint64_t batchesSubmitted = 0;  ///< submitBatch() calls
    /**
     * Traces moved between workers. Always 0: every worker pops from
     * the one shared queue, so no trace is ever stolen. Kept because
     * the perfbench per-layer metrics still read it.
     */
    uint64_t steals = 0;
    uint64_t producerStallNanos = 0;///< time producers blocked on
                                    ///< the full queue (backpressure)
    size_t queueCapacity = 0;       ///< queued-trace bound (0 = none)
    size_t queuedTraces = 0;        ///< traces waiting for a worker

    /** Multi-line human-readable rendering. */
    std::string str() const;
};

/** Dispatches traces to engine workers and aggregates reports. */
class EnginePool
{
  public:
    explicit EnginePool(const PoolOptions &options);

    /**
     * Convenience constructor with the default queue bound.
     * @param kind persistency model all engines use
     * @param workers number of worker threads; 0 = inline checking
     */
    EnginePool(ModelKind kind, size_t workers);

    /** Stops workers; pending traces are drained first. */
    ~EnginePool();

    EnginePool(const EnginePool &) = delete;
    EnginePool &operator=(const EnginePool &) = delete;

    /**
     * Submit one trace for checking (PMTest_SEND_TRACE). Blocks while
     * the queue is full; checks inline when the pool has no workers.
     */
    void submit(Trace trace);

    /**
     * Submit a batch of traces as one dispatch unit: one queue lock
     * acquisition while the batch fits. Once queued, the traces are
     * taken one at a time by whichever workers are idle.
     */
    void submitBatch(std::vector<Trace> traces);

    /**
     * Block until every submitted trace has been checked
     * (PMTest_GET_RESULT).
     */
    void drain();

    /**
     * Merged findings of all traces checked so far (a copy; the pool
     * keeps them). Implies drain(); the wait and the snapshot happen
     * in one critical section, so the returned report is exactly the
     * drained state even when other threads keep submitting. Prefer
     * takeResults() when the pool's copy is not needed again.
     */
    Report results();

    /** Drop accumulated findings (between test phases). */
    void clearResults();

    /**
     * Atomically drain, snapshot and reset: the returned report
     * contains every finding not returned by a previous take, and
     * concurrent submitters cannot slip findings into the gap (they
     * are either in this snapshot or in the next one).
     */
    Report takeResults();

    /** Dispatch statistics snapshot. */
    PoolStats stats() const;

    /** Number of worker threads (0 = inline mode). */
    size_t workerCount() const { return workers_.size(); }

    /** Queued-trace bound (0 = unbounded). */
    size_t queueCapacity() const { return queue_.capacity(); }

    /** Total traces checked so far. */
    uint64_t tracesChecked() const;

    /** Total PM operations processed so far. */
    uint64_t opsProcessed() const;

  private:
    struct Worker
    {
        explicit Worker(ModelKind kind) : engine(kind) {}

        Engine engine;
        std::thread thread;
        std::atomic<uint64_t> opsProcessed{0};
        std::atomic<uint64_t> tracesChecked{0};
    };

    /** Process one trace on @p worker and record its report. */
    void checkOn(Worker &worker, Trace trace);
    void recordResult(Report report);
    /**
     * Move pending_ into aggregate_ in (fileId, traceId) order.
     * REQUIRES: resultMutex_ held.
     */
    void foldPending();
    /** Account a submit that blocked @p stall_ns on the full queue. */
    void noteStall(uint64_t stall_ns);
    void checkInline(Trace trace);

    ConcurrentQueue<Trace> queue_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::unique_ptr<Engine> inlineEngine_; ///< used when workers_ empty
    mutable std::mutex inlineMutex_;       ///< guards inline engine

    std::atomic<uint64_t> batches_{0};

    mutable std::mutex resultMutex_;
    std::condition_variable drainCv_;
    /** Non-clean per-trace reports not yet folded into aggregate_. */
    std::vector<Report> pending_;
    Report aggregate_;
    uint64_t submitted_ = 0; ///< guarded by resultMutex_
    uint64_t completed_ = 0; ///< guarded by resultMutex_
};

} // namespace pmtest::core

#endif // PMTEST_CORE_ENGINE_POOL_HH
