/**
 * @file
 * Calls into the PMTest layers that every workload shares, each timed
 * from outside: the in-process load→verdict pipeline (TraceSource →
 * core::ingest → EnginePool → Report), a decode-only pass, and a
 * single-thread Engine::check pass. Offline workloads run them on
 * their generated files; online_kv on a file recorded from its own
 * application run.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"
#include "core/engine_pool.hh"
#include "core/report.hh"
#include "gen.hh"
#include "trace/trace.hh"

namespace perfbench
{

/** A report's findings as sorted FAIL and WARN identity sets. */
struct Verdict
{
    std::vector<Identity> fails;
    std::vector<Identity> warns;
};

/** Split and sort @p report's findings by severity. */
Verdict verdictOf(const pmtest::core::Report &report);

/** One in-process load→verdict run, with per-stage durations. */
struct PipelineRun
{
    uint64_t runNs = 0;
    uint64_t openNs = 0;
    uint64_t ingestNs = 0;
    uint64_t drainNs = 0;
    uint64_t canonicalizeNs = 0;
    uint64_t renderNs = 0;
    uint64_t findings = 0;
    pmtest::core::PoolStats stats; ///< includes the ingest counters
    Verdict verdict;
};

/**
 * Check @p file the way pmtest_check does by default — the detected
 * decoder/worker layout, canonical report, every finding rendered —
 * under the span tree run → trace.open → core.ingest → core.drain →
 * core.canonicalize → core.render.
 */
PipelineRun runPipeline(const std::string &file);

/** All traces of a file, decoded on one thread. */
struct Decoded
{
    std::vector<pmtest::Trace> traces;
    uint64_t ops = 0;
    uint64_t bytes = 0; ///< file bytes behind the traces
    uint64_t ns = 0;    ///< time spent in TraceSource::pull
};

/**
 * Decode every trace of @p file (span trace.decode), keeping them only
 * when @p keep; otherwise each batch is dropped once counted.
 */
Decoded decodeAll(const std::string &file, bool keep);

/** A single-thread Engine::check pass. */
struct EngineRun
{
    std::vector<double> perTraceNs;
    uint64_t ns = 0;
    Verdict verdict;
};

/**
 * Check @p count of @p traces, starting at @p first and wrapping
 * around, on one engine (span core.engine_check).
 */
EngineRun checkEach(const std::vector<pmtest::Trace> &traces, size_t first,
                    size_t count);

/** Max over min traces checked per worker (1 = perfectly even). */
double workerSkew(const pmtest::core::PoolStats &stats);

/**
 * The traced-run measurement of the shared layers on @p file:
 * interleaved untraced and traced pipeline runs for about
 * @p budget_sec, then the isolated decode and engine passes. Adds the
 * trace.* / core.* layer metrics to @p result; pool dispatch metrics
 * and drain only when @p dispatch_metrics (online_kv takes those from
 * its application run instead). Every verdict is checked against
 * @p expected; the decoded traces are left in @p decoded.
 * @return the tracing overhead share of the pipeline runs.
 */
double measureSharedLayers(const std::string &file,
                           const std::vector<Identity> &expected,
                           double budget_sec, bool dispatch_metrics,
                           Result &result,
                           std::vector<pmtest::Trace> *decoded);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
