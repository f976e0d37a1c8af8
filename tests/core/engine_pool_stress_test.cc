/**
 * @file
 * Concurrency stress for the engine pool: many producer threads
 * submitting concurrently, results must aggregate exactly; drains
 * must be safe from any thread; interleaved clear/submit cycles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "core/engine_pool.hh"

namespace pmtest::core
{
namespace
{

Trace
traceWithFailures(uint64_t id, size_t n_failures)
{
    Trace t(id, 0);
    for (size_t i = 0; i < n_failures; i++) {
        const uint64_t addr = 0x1000 + 64 * i;
        t.append(PmOp::write(addr, 8));
        t.append(PmOp::isPersist(addr, 8)); // FAIL each time
    }
    return t;
}

TEST(EnginePoolStressTest, ConcurrentProducersAggregateExactly)
{
    constexpr size_t kProducers = 8;
    constexpr size_t kTracesPerProducer = 200;
    constexpr size_t kFailuresPerTrace = 3;

    EnginePool pool(ModelKind::X86, 2);
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; p++) {
        producers.emplace_back([&pool, p] {
            for (size_t i = 0; i < kTracesPerProducer; i++) {
                pool.submit(traceWithFailures(p * 1000 + i,
                                              kFailuresPerTrace));
            }
        });
    }
    for (auto &t : producers)
        t.join();

    const Report report = pool.results();
    EXPECT_EQ(report.failCount(),
              kProducers * kTracesPerProducer * kFailuresPerTrace);
    EXPECT_EQ(pool.tracesChecked(), kProducers * kTracesPerProducer);
}

TEST(EnginePoolStressTest, DrainWhileSubmittingFromOtherThread)
{
    // A bounded producer runs concurrently with drains from the main
    // thread; every drain must terminate (a drain only waits for the
    // traces submitted before it returns, and the producer finishes).
    EnginePool pool(ModelKind::X86, 2);
    constexpr uint64_t kTraces = 2000;
    std::thread producer([&] {
        for (uint64_t id = 0; id < kTraces; id++)
            pool.submit(traceWithFailures(id, 1));
    });

    for (int i = 0; i < 20; i++)
        pool.drain();

    producer.join();
    pool.drain();
    EXPECT_EQ(pool.tracesChecked(), kTraces);
    EXPECT_EQ(pool.results().failCount(), kTraces);
}

TEST(EnginePoolStressTest, ClearBetweenBatches)
{
    EnginePool pool(ModelKind::X86, 2);
    for (int batch = 0; batch < 10; batch++) {
        for (uint64_t i = 0; i < 20; i++)
            pool.submit(traceWithFailures(i, 2));
        EXPECT_EQ(pool.results().failCount(), 40u)
            << "batch " << batch;
        pool.clearResults();
    }
}

TEST(EnginePoolStressTest, TakeResultsLosesNothingUnderConcurrentSubmit)
{
    // Regression test for the results()/clearResults() race: the
    // original implementation called drain() (releasing the result
    // lock) and then re-acquired it to snapshot/reset, so findings of
    // traces completed in the gap could be wiped without ever being
    // observed. takeResults() folds the wait and the snapshot+reset
    // into one critical section: every finding must be returned by
    // exactly one take.
    constexpr size_t kProducers = 4;
    constexpr size_t kTracesPerProducer = 500;

    EnginePool pool(ModelKind::X86, 2);
    std::atomic<size_t> producers_done{0};
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; p++) {
        producers.emplace_back([&, p] {
            for (size_t i = 0; i < kTracesPerProducer; i++)
                pool.submit(traceWithFailures(p * 1000 + i, 1));
            producers_done.fetch_add(1, std::memory_order_relaxed);
        });
    }

    // Consume concurrently with the producers: every take races with
    // in-flight submissions, which is exactly the window the original
    // drain-then-relock implementation lost findings in.
    uint64_t observed = 0;
    while (producers_done.load(std::memory_order_relaxed) <
           kProducers) {
        observed += pool.takeResults().failCount();
    }
    for (auto &t : producers)
        t.join();
    observed += pool.takeResults().failCount();

    EXPECT_EQ(observed, kProducers * kTracesPerProducer);
    EXPECT_EQ(pool.results().failCount(), 0u); // everything was taken
}

TEST(EnginePoolStressTest, InterleavedTakesReturnEachFindingOnceInOrder)
{
    // Takes fold the pending per-trace reports at drain. Racing with
    // concurrent submitters (single and batched, clean and failing
    // traces), every finding must come back from exactly one take,
    // and since every trace comes from file 0, each take must already
    // be in canonical (traceId, opIndex) order.
    constexpr size_t kProducers = 4;
    constexpr size_t kTracesPerProducer = 300;
    constexpr size_t kFailuresPerTrace = 3;

    EnginePool pool(ModelKind::X86, 3);
    std::atomic<size_t> producers_done{0};
    std::vector<std::thread> producers;
    size_t expected = 0;
    for (size_t p = 0; p < kProducers; p++) {
        for (size_t i = 0; i < kTracesPerProducer; i++)
            expected += i % 5 == 0 ? 0 : kFailuresPerTrace;
        producers.emplace_back([&, p] {
            std::vector<Trace> batch;
            for (size_t i = 0; i < kTracesPerProducer; i++) {
                Trace t = traceWithFailures(
                    p * 1000 + i, i % 5 == 0 ? 0 : kFailuresPerTrace);
                if (p % 2 == 0) {
                    pool.submit(std::move(t));
                    continue;
                }
                batch.push_back(std::move(t));
                if (batch.size() == 8) {
                    pool.submitBatch(std::move(batch));
                    batch.clear();
                }
            }
            pool.submitBatch(std::move(batch));
            producers_done.fetch_add(1, std::memory_order_relaxed);
        });
    }

    std::map<std::pair<uint64_t, size_t>, size_t> seen;
    const auto take = [&] {
        const Report r = pool.takeResults();
        const auto &f = r.findings();
        EXPECT_TRUE(std::is_sorted(
            f.begin(), f.end(), [](const Finding &a, const Finding &b) {
                if (a.traceId != b.traceId)
                    return a.traceId < b.traceId;
                return a.opIndex < b.opIndex;
            }));
        for (const Finding &finding : f)
            seen[{finding.traceId, finding.opIndex}]++;
    };
    while (producers_done.load(std::memory_order_relaxed) < kProducers)
        take();
    for (auto &t : producers)
        t.join();
    take();

    EXPECT_EQ(seen.size(), expected);
    for (const auto &[id, count] : seen)
        EXPECT_EQ(count, 1u) << "trace " << id.first << " op "
                             << id.second;
    EXPECT_TRUE(pool.takeResults().clean());
}

TEST(EnginePoolStressTest, GiantTraceDoesNotHoldBackSmallTraces)
{
    // One giant trace occupies one worker. The small traces queued
    // behind it must not wait for it: the other worker checks them
    // while the giant is still running. The giant writes 1M distinct
    // lines, which takes far longer than submitting and checking
    // every small trace, so a dispatcher that parks small traces
    // behind the giant, or serializes checking, fails.
    constexpr size_t kGiantOps = 1000000;
    constexpr uint64_t kSmalls = 200;
    EnginePool pool(ModelKind::X86, 2);

    Trace giant(0, 0);
    for (size_t i = 0; i < kGiantOps; i++)
        giant.append(PmOp::write(0x1000 + 64 * i, 8));
    std::vector<Trace> smalls;
    for (uint64_t i = 1; i <= kSmalls; i++)
        smalls.push_back(traceWithFailures(i, 1));

    pool.submit(std::move(giant));
    for (Trace &t : smalls)
        pool.submit(std::move(t));
    // A worker publishes its op count only when a trace is done, so
    // while the giant runs the pool reports fewer than kGiantOps.
    while (pool.tracesChecked() < kSmalls)
        std::this_thread::yield();
    EXPECT_LT(pool.opsProcessed(), kGiantOps)
        << "the small traces waited for the giant";
    pool.drain();

    EXPECT_EQ(pool.tracesChecked(), kSmalls + 1);
    EXPECT_EQ(pool.results().failCount(), kSmalls);
    const PoolStats stats = pool.stats();
    ASSERT_EQ(stats.workers.size(), 2u);
    const bool first_had_giant =
        stats.workers[0].opsProcessed >= kGiantOps;
    const WorkerStats &other = stats.workers[first_had_giant ? 1 : 0];
    EXPECT_LT(other.opsProcessed, kGiantOps);
    EXPECT_GE(other.tracesChecked, kSmalls * 9 / 10);
}

TEST(EnginePoolStressTest, BoundedQueueExertsBackpressure)
{
    // With capacity 4, the producer can never observe more than 4
    // queued traces: a fast producer stalls instead of growing the
    // queue without limit.
    PoolOptions options;
    options.workers = 2;
    options.queueCapacity = 4;
    EnginePool pool(options);

    size_t max_queued = 0;
    for (uint64_t i = 0; i < 500; i++) {
        pool.submit(traceWithFailures(i, 2));
        max_queued =
            std::max(max_queued, pool.stats().queuedTraces);
    }
    pool.drain();

    EXPECT_LE(max_queued, options.queueCapacity);
    EXPECT_EQ(pool.results().failCount(), 1000u);
}

TEST(EnginePoolStressTest, BatchedProducersAggregateExactly)
{
    constexpr size_t kProducers = 4;
    constexpr size_t kBatches = 40;
    constexpr size_t kBatchSize = 10;

    PoolOptions options;
    options.workers = 2;
    options.queueCapacity = 16; // smaller than a full producer load
    EnginePool pool(options);

    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; p++) {
        producers.emplace_back([&pool, p] {
            for (size_t b = 0; b < kBatches; b++) {
                std::vector<Trace> batch;
                for (size_t i = 0; i < kBatchSize; i++) {
                    batch.push_back(traceWithFailures(
                        p * 10000 + b * 100 + i, 1));
                }
                pool.submitBatch(std::move(batch));
            }
        });
    }
    for (auto &t : producers)
        t.join();

    const Report report = pool.results();
    EXPECT_EQ(report.failCount(), kProducers * kBatches * kBatchSize);
    EXPECT_EQ(pool.stats().batchesSubmitted, kProducers * kBatches);
}

TEST(EnginePoolStressTest, ManySmallTracesThroughput)
{
    // Sanity guard on per-trace bookkeeping: 10k traces must check
    // without blowing up memory or deadlocking.
    EnginePool pool(ModelKind::X86, 1);
    for (uint64_t i = 0; i < 10000; i++) {
        Trace t(i, 0);
        t.append(PmOp::write(0x10, 8));
        t.append(PmOp::clwb(0x10, 8));
        t.append(PmOp::sfence());
        pool.submit(std::move(t));
    }
    pool.drain();
    EXPECT_EQ(pool.tracesChecked(), 10000u);
    EXPECT_EQ(pool.opsProcessed(), 30000u);
    EXPECT_TRUE(pool.results().clean());
}

} // namespace
} // namespace pmtest::core
