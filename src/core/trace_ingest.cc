#include "core/trace_ingest.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "obs/telemetry.hh"
#include "util/clock.hh"

namespace pmtest::core
{

bool
ingest(TraceSource &source, EnginePool &pool,
       const IngestOptions &options, IngestStats *ingest,
       SourceError *error)
{
    const size_t count = source.traceCount();
    const bool counted = count != TraceSource::kUnknownCount;
    size_t team = std::max<size_t>(1, options.decoders);
    if (counted)
        team = std::min(team, std::max<size_t>(count, 1));
    const size_t batch_size = std::max<size_t>(1, options.batch);

    // Decoders claim runs of consecutive traces rather than one at a
    // time: fewer shared-cursor bumps inside the source, and each
    // claim decodes into one batch flushed with a single submitBatch
    // — on oversubscribed machines (decoders + workers > cores) that
    // keeps the wakeup rate proportional to batches, not traces. An
    // unknown-count source (live capture) just pulls full batches.
    const size_t chunk =
        counted ? std::max<size_t>(
                      1, std::min(batch_size, count / (team * 4) + 1))
                : batch_size;

    std::atomic<bool> failed{false};
    std::atomic<uint64_t> decode_nanos{0};
    std::atomic<uint64_t> stall_nanos{0};
    std::atomic<uint64_t> decoded{0};
    std::mutex error_mutex;
    bool error_set = false;

    auto decodeLoop = [&] {
        std::vector<Trace> batch;
        batch.reserve(batch_size);
        auto flush = [&] {
            if (batch.empty())
                return;
            // submitBatch blocks when every worker queue is full —
            // that wait is the ingest backpressure we account as
            // stall time (an unstalled submit is microseconds).
            obs::SpanScope span(obs::Stage::IngestSubmit);
            Timer stall;
            pool.submitBatch(std::move(batch));
            stall_nanos.fetch_add(stall.elapsedNs(),
                                  std::memory_order_relaxed);
            batch.clear();
            batch.reserve(batch_size);
        };

        while (!failed.load(std::memory_order_relaxed)) {
            const size_t before = batch.size();
            SourceError local_error;
            TraceSource::Pull result;
            Timer timer;
            {
                obs::SpanScope span(obs::Stage::IngestDecode);
                result = source.pull(chunk, &batch, &local_error);
            }
            decode_nanos.fetch_add(timer.elapsedNs(),
                                   std::memory_order_relaxed);
            if (result == TraceSource::Pull::Error) {
                failed.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error_set) {
                    error_set = true;
                    if (error)
                        *error = std::move(local_error);
                }
                break;
            }
            if (result == TraceSource::Pull::End)
                break;
            const size_t done = batch.size() - before;
            decoded.fetch_add(done, std::memory_order_relaxed);
            if (options.progress)
                options.progress->tracesDecoded.fetch_add(
                    done, std::memory_order_relaxed);
            obs::count(obs::Counter::ChunksDecoded);
            obs::count(obs::Counter::TracesDecoded, done);
            if (batch.size() >= batch_size)
                flush();
        }
        flush();
    };

    if (team == 1) {
        decodeLoop();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(team);
        for (size_t d = 0; d < team; d++) {
            threads.emplace_back([&decodeLoop, d] {
                obs::nameThread("decoder-" + std::to_string(d));
                decodeLoop();
            });
        }
        for (auto &t : threads)
            t.join();
    }

    const bool ok = !failed.load(std::memory_order_relaxed);
    if (ok)
        obs::count(obs::Counter::SourcesIngested,
                   source.sourceCount());

    if (ingest) {
        ingest->active = true;
        ingest->mmapBacked = source.mmapBacked();
        ingest->decoders = static_cast<uint32_t>(team);
        ingest->sources = source.sourceCount();
        ingest->bytesMapped = source.sizeBytes();
        ingest->tracesDecoded =
            decoded.load(std::memory_order_relaxed);
        ingest->decodeNanos =
            decode_nanos.load(std::memory_order_relaxed);
        ingest->stallNanos =
            stall_nanos.load(std::memory_order_relaxed);
    }
    if (options.progress)
        options.progress->done.store(true, std::memory_order_release);
    return ok;
}

} // namespace pmtest::core
