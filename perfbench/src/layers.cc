#include "layers.hh"

#include <algorithm>

#include "core/check_session.hh"
#include "core/engine.hh"
#include "core/trace_ingest.hh"
#include "spans.hh"
#include "trace/trace_source.hh"
#include "util/clock.hh"
#include "util/cpu.hh"

namespace perfbench
{

using namespace pmtest;
using namespace pmtest::core;

namespace
{

std::unique_ptr<TraceSource>
openOrDie(const std::string &file)
{
    std::string error;
    auto source = openTraceSource(file, IngestMode::Auto, 0, &error);
    if (!source)
        die("cannot open " + file + ": " + error);
    return source;
}

/** Keeps rendered findings observable so rendering is not elided. */
volatile size_t g_renderedBytes = 0;

} // namespace

Verdict
verdictOf(const Report &report)
{
    Verdict v;
    for (const auto &f : report.findings()) {
        const Identity id{f.fileId, f.traceId,
                          static_cast<uint64_t>(f.opIndex)};
        (f.severity == Severity::Fail ? v.fails : v.warns).push_back(id);
    }
    std::sort(v.fails.begin(), v.fails.end());
    std::sort(v.warns.begin(), v.warns.end());
    return v;
}

PipelineRun
runPipeline(const std::string &file)
{
    const util::PipelineLayout layout = util::defaultPipelineLayout();
    PipelineRun out;
    Report report;
    {
        ScopedSpan run("run", &out.runNs);
        std::unique_ptr<TraceSource> source;
        {
            ScopedSpan span("trace.open", &out.openNs);
            source = openOrDie(file);
        }
        PoolOptions options;
        options.model = ModelKind::X86;
        options.workers = layout.workers;
        {
            EnginePool pool(options);
            IngestOptions ingest_options;
            ingest_options.decoders = layout.decoders;
            ingest_options.batch = CheckPlan{}.batch;
            IngestStats ingest_stats;
            SourceError error;
            bool ok = false;
            {
                ScopedSpan span("core.ingest", &out.ingestNs);
                ok = ingest(*source, pool, ingest_options, &ingest_stats,
                            &error);
            }
            if (!ok)
                die("ingest failed: " + error.str());
            {
                ScopedSpan span("core.drain", &out.drainNs);
                report = pool.results();
            }
            out.stats = pool.stats();
            out.stats.ingest = ingest_stats;
        }
        {
            ScopedSpan span("core.canonicalize", &out.canonicalizeNs);
            report.canonicalize();
        }
        {
            ScopedSpan span("core.render", &out.renderNs);
            size_t bytes = 0;
            for (const auto &finding : report.findings())
                bytes += finding.str().size();
            g_renderedBytes = bytes;
        }
    }
    out.findings = report.findings().size();
    out.verdict = verdictOf(report);
    return out;
}

Decoded
decodeAll(const std::string &file, bool keep)
{
    auto source = openOrDie(file);
    Decoded out;
    out.bytes = source->sizeBytes();
    std::vector<Trace> batch;
    SourceError error;
    {
        ScopedSpan span("trace.decode", &out.ns);
        for (;;) {
            batch.clear();
            const auto pulled = source->pull(64, &batch, &error);
            if (pulled == TraceSource::Pull::End)
                break;
            if (pulled == TraceSource::Pull::Error)
                die("decode failed: " + error.str());
            for (auto &trace : batch) {
                out.ops += trace.size();
                if (keep)
                    out.traces.push_back(std::move(trace));
            }
        }
    }
    return out;
}

EngineRun
checkEach(const std::vector<Trace> &traces, size_t first, size_t count)
{
    EngineRun out;
    out.perTraceNs.reserve(count);
    Report merged;
    {
        ScopedSpan span("core.engine_check", &out.ns);
        Engine engine(ModelKind::X86);
        for (size_t i = 0; i < count; i++) {
            const Trace &trace = traces[(first + i) % traces.size()];
            const uint64_t t0 = monotonicNanos();
            Report report = engine.check(trace);
            out.perTraceNs.push_back(
                static_cast<double>(monotonicNanos() - t0));
            merged.merge(report);
        }
    }
    out.verdict = verdictOf(merged);
    return out;
}

double
workerSkew(const PoolStats &stats)
{
    uint64_t lo = ~uint64_t{0}, hi = 0;
    for (const auto &w : stats.workers) {
        lo = std::min(lo, w.tracesChecked);
        hi = std::max(hi, w.tracesChecked);
    }
    if (stats.workers.empty())
        return 1;
    return static_cast<double>(hi) /
           static_cast<double>(std::max<uint64_t>(lo, 1));
}

double
measureSharedLayers(const std::string &file,
                    const std::vector<Identity> &expected,
                    double budget_sec, bool dispatch_metrics,
                    Result &result, std::vector<Trace> *decoded)
{
    std::vector<double> untraced, traced, open, ingest_s, drain, canon,
        render, decode_ms, ingest_stall, run_self, uncovered, submit_stall,
        steals, batches, skew;
    uint64_t findings = 0;
    const Timer budget;
    for (size_t rep = 0;; rep++) {
        // Alternate which kind runs first in each pair.
        for (int k = 0; k < 2; k++) {
            const bool on = (rep + k) % 2 == 1;
            setSpansEnabled(on);
            const PipelineRun run = runPipeline(file);
            setSpansEnabled(false);
            result.check(run.stats.tracesCompleted,
                         wrongTraces(expected, run.verdict.fails,
                                     run.verdict.warns));
            findings = run.findings;
            if (!on) {
                untraced.push_back(run.runNs);
                continue;
            }
            traced.push_back(run.runNs);
            open.push_back(run.openNs / 1e6);
            ingest_s.push_back(run.ingestNs / 1e9);
            drain.push_back(run.drainNs / 1e6);
            canon.push_back(run.canonicalizeNs / 1e6);
            render.push_back(run.renderNs / 1e6);
            const IngestStats &is = run.stats.ingest;
            decode_ms.push_back(is.decodeNanos / 1e6);
            ingest_stall.push_back(
                static_cast<double>(is.stallNanos) /
                static_cast<double>(
                    std::max<uint64_t>(is.decodeNanos + is.stallNanos, 1)));
            const double self =
                static_cast<double>(run.runNs) -
                static_cast<double>(run.openNs + run.ingestNs +
                                    run.drainNs + run.canonicalizeNs +
                                    run.renderNs);
            run_self.push_back(self / 1e6);
            uncovered.push_back(self / static_cast<double>(run.runNs));
            submit_stall.push_back(
                static_cast<double>(run.stats.producerStallNanos) /
                static_cast<double>(run.runNs));
            steals.push_back(static_cast<double>(run.stats.steals));
            batches.push_back(
                static_cast<double>(run.stats.batchesSubmitted));
            skew.push_back(workerSkew(run.stats));
        }
        if (rep >= 5 && budget.elapsedSec() >= budget_sec)
            break;
    }

    result.metric("trace.open_ms", median(open), "ms");
    result.metric("core.ingest_s", median(ingest_s), "s");
    result.metric("core.decode_ms", median(decode_ms), "ms");
    result.metric("core.ingest_stall_share", median(ingest_stall), "share");
    result.metric("core.canonicalize_ms", median(canon), "ms");
    result.metric("core.render_ms", median(render), "ms");
    result.metric("core.findings", static_cast<double>(findings), "count");
    result.metric("run.self_ms", median(run_self), "ms");
    result.metric("run.uncovered_share", median(uncovered), "share");
    if (dispatch_metrics) {
        result.metric("core.drain_ms", median(drain), "ms");
        result.metric("core.submit_stall_share", median(submit_stall),
                      "share");
        result.metric("core.steals", median(steals), "count");
        result.metric("core.batches", median(batches), "count");
        result.metric("core.worker_skew", median(skew), "ratio");
    }
    result.infoNum("pipeline_samples", static_cast<double>(traced.size()));

    // Isolated passes: decode only (streaming, nothing retained; the
    // median of three), then single-thread checking of the retained
    // traces.
    std::vector<double> decode_ns;
    Decoded decode;
    setSpansEnabled(true);
    for (int pass = 0; pass < 3; pass++) {
        decode = decodeAll(file, false);
        decode_ns.push_back(static_cast<double>(decode.ns));
    }
    setSpansEnabled(false);
    *decoded = decodeAll(file, true).traces;
    setSpansEnabled(true);
    const EngineRun engine = checkEach(*decoded, 0, decoded->size());
    setSpansEnabled(false);
    result.check(decoded->size(),
                 wrongTraces(expected, engine.verdict.fails,
                             engine.verdict.warns));
    const double ops = static_cast<double>(std::max<uint64_t>(decode.ops, 1));
    result.metric("trace.decode_ns_per_op", median(decode_ns) / ops, "ns");
    result.metric("trace.bytes_per_op", decode.bytes / ops, "B");
    result.metric("core.check_ns_per_op", engine.ns / ops, "ns");
    result.metric("core.check_us_per_trace",
                  engine.ns / 1e3 /
                      static_cast<double>(std::max<size_t>(decoded->size(), 1)),
                  "us");
    return (median(traced) - median(untraced)) / median(untraced);
}

} // namespace perfbench
