#include "core/live_gauges.hh"

namespace pmtest::core
{

namespace
{

/** Gauge of one leaf source; drained-ness needs the ingest state. */
obs::SourceGauge
leafGauge(const TraceSource &leaf, bool ingest_done)
{
    obs::SourceGauge g;
    g.label = leaf.name();
    const size_t count = leaf.traceCount();
    g.tracesTotalKnown = count != TraceSource::kUnknownCount;
    g.tracesTotal = g.tracesTotalKnown ? count : 0;
    g.bytesTotal = leaf.sizeBytes();
    g.tracesConsumed = leaf.consumedTraces();
    g.bytesConsumed = leaf.consumedBytes();
    // A counted source is drained when every trace is out; an
    // unknown-total one (live capture) only once ingest() returned.
    g.drained = g.tracesTotalKnown
                    ? g.tracesConsumed >= g.tracesTotal
                    : ingest_done;
    return g;
}

void
collectLeaves(const TraceSource &source, bool ingest_done,
              std::vector<obs::SourceGauge> *out)
{
    if (const auto *multi =
            dynamic_cast<const MultiTraceSource *>(&source)) {
        for (const auto &child : multi->children())
            collectLeaves(*child, ingest_done, out);
        return;
    }
    out->push_back(leafGauge(source, ingest_done));
}

} // namespace

obs::PoolGauges
samplePoolGauges(const EnginePool &pool)
{
    const PoolStats stats = pool.stats();
    obs::PoolGauges g;
    g.valid = true;
    g.tracesSubmitted = stats.tracesSubmitted;
    g.tracesCompleted = stats.tracesCompleted;
    g.queuedTraces = stats.queuedTraces;
    return g;
}

obs::IngestGauges
sampleIngestGauges(const TraceSource &source,
                   const IngestProgress *progress)
{
    obs::IngestGauges g;
    g.valid = true;
    g.done = progress &&
             progress->done.load(std::memory_order_acquire);
    collectLeaves(source, g.done, &g.sources);
    return g;
}

std::function<obs::PoolGauges()>
poolGaugeSampler(const EnginePool &pool)
{
    return [&pool] { return samplePoolGauges(pool); };
}

std::function<obs::IngestGauges()>
ingestGaugeSampler(const TraceSource &source,
                   const IngestProgress *progress)
{
    return [&source, progress] {
        return sampleIngestGauges(source, progress);
    };
}

} // namespace pmtest::core
