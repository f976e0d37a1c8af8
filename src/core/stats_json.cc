#include "core/stats_json.hh"

namespace pmtest::core
{

void
writeIngestStatsJson(JsonWriter &w, const IngestStats &stats)
{
    w.beginObject();
    w.member("active", stats.active);
    w.member("mmap_backed", stats.mmapBacked);
    w.member("decoders", stats.decoders);
    w.member("sources", stats.sources);
    w.member("bytes_mapped", stats.bytesMapped);
    w.member("traces_decoded", stats.tracesDecoded);
    w.member("decode_ms",
             static_cast<double>(stats.decodeNanos) * 1e-6, 3);
    w.member("stall_ms",
             static_cast<double>(stats.stallNanos) * 1e-6, 3);
    w.endObject();
}

void
writePoolStatsJson(JsonWriter &w, const PoolStats &stats)
{
    w.beginObject();
    w.member("traces_submitted", stats.tracesSubmitted);
    w.member("traces_completed", stats.tracesCompleted);
    w.member("batches", stats.batchesSubmitted);
    w.member("producer_stall_ms",
             static_cast<double>(stats.producerStallNanos) * 1e-6, 3);
    w.member("queue_capacity", stats.queueCapacity);
    w.member("queued_traces", stats.queuedTraces);
    if (stats.ingest.active) {
        w.key("ingest");
        writeIngestStatsJson(w, stats.ingest);
    }
    w.key("workers").beginArray();
    for (const WorkerStats &worker : stats.workers) {
        w.beginObject();
        w.member("traces", worker.tracesChecked);
        w.member("ops", worker.opsProcessed);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace pmtest::core
