#include "core/check_session.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <utility>

#include "core/engine_pool.hh"
#include "core/fix_verify.hh"
#include "core/live_gauges.hh"
#include "core/report_io.hh"
#include "core/stats_json.hh"
#include "obs/telemetry.hh"
#include "trace/trace_source.hh"
#include "util/cpu.hh"
#include "util/json.hh"

namespace pmtest::core
{

namespace
{

namespace fs = std::filesystem;

/**
 * Expand positional arguments into the flat input-file list:
 * directories contribute their regular files in sorted name order,
 * plain paths pass through.
 */
bool
expandInputs(const std::vector<std::string> &args,
             std::vector<std::string> *files, std::string *error)
{
    for (const auto &arg : args) {
        std::error_code ec;
        if (fs::is_directory(arg, ec)) {
            std::vector<std::string> entries;
            for (const auto &entry : fs::directory_iterator(arg, ec)) {
                if (entry.is_regular_file())
                    entries.push_back(entry.path().string());
            }
            if (ec) {
                *error = arg + ": cannot read directory";
                return false;
            }
            if (entries.empty()) {
                *error = arg + ": no trace files in directory";
                return false;
            }
            std::sort(entries.begin(), entries.end());
            files->insert(files->end(), entries.begin(),
                          entries.end());
        } else {
            files->push_back(arg);
        }
    }
    return true;
}

/**
 * Reject the same file appearing twice in the input set (directly or
 * via directory expansion): duplicate traces would double every
 * finding. Compares canonicalized paths so "a.trc" and "./a.trc"
 * collide.
 */
bool
rejectDuplicates(const std::vector<std::string> &files,
                 std::string *error)
{
    std::vector<std::string> seen;
    for (const auto &file : files) {
        std::error_code ec;
        fs::path canon = fs::weakly_canonical(file, ec);
        const std::string key = ec ? file : canon.string();
        if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
            *error = "duplicate input: " + file;
            return false;
        }
        seen.push_back(key);
    }
    return true;
}

/**
 * Thread counts resolved with the usual precedence: explicit flag
 * beats PMTEST_WORKERS / PMTEST_DECODERS, which beat the
 * hardware-derived layout (see util/cpu.hh). Both the session (to
 * size its pool) and the merge (to print the header the sequential
 * run would print) resolve through here.
 */
void
resolveThreads(const CheckPlan &plan, size_t *workers,
               size_t *decoders)
{
    const util::PipelineLayout layout = util::defaultPipelineLayout();
    *workers = plan.workers == static_cast<size_t>(-1)
                   ? layout.workers
                   : plan.workers;
    *decoders = plan.decoders == 0 ? layout.decoders : plan.decoders;
}

/**
 * Build worker workerIndex/workerCount's slice of the input set (a
 * plain run is worker 0 of 1): for a single input, index slice
 * workerIndex of an N-way shardTraceSource split; for a file set,
 * files j with j % N == workerIndex, keeping fileId = j. Shard slices
 * partition the sequential input exactly, which is what makes the
 * merged report byte-identical. Also the re-open path of
 * the fix-hints replay pass, which needs identical fileId
 * assignment. A worker past the end of a short split legitimately
 * has nothing to do: *empty is set and nullptr returned with no
 * error.
 */
std::unique_ptr<TraceSource>
buildWorkerSource(const CheckPlan &plan, bool *empty,
                  std::string *error)
{
    *empty = false;
    const uint32_t count = std::max<uint32_t>(plan.workerCount, 1);
    if (plan.inputs.size() == 1) {
        std::shared_ptr<const TraceFileReader> reader =
            TraceFileReader::open(plan.inputs[0], IngestMode::Auto,
                                  error);
        if (!reader)
            return nullptr;
        auto slices = shardTraceSource(std::move(reader),
                                       plan.inputs[0], 0, count);
        if (plan.workerIndex >= slices.size()) {
            *empty = true;
            return nullptr;
        }
        return std::move(slices[plan.workerIndex]);
    }
    std::vector<std::unique_ptr<TraceSource>> children;
    for (size_t j = plan.workerIndex; j < plan.inputs.size();
         j += count) {
        auto child = openTraceSource(plan.inputs[j], IngestMode::Auto,
                                     static_cast<uint32_t>(j), error);
        if (!child)
            return nullptr;
        children.push_back(std::move(child));
    }
    if (children.empty()) {
        *empty = true;
        return nullptr;
    }
    if (children.size() == 1)
        return std::move(children[0]);
    return std::make_unique<MultiTraceSource>(std::move(children));
}

/** One "  source NAME: ..." line per leaf source. */
void
printSourceStats(const TraceSource &source)
{
    if (const auto *multi =
            dynamic_cast<const MultiTraceSource *>(&source)) {
        for (const auto &child : multi->children())
            printSourceStats(*child);
        return;
    }
    std::printf("  source %s: %zu traces, %llu ops, %llu bytes %s\n",
                source.name().c_str(), source.traceCount(),
                static_cast<unsigned long long>(source.totalOps()),
                static_cast<unsigned long long>(source.sizeBytes()),
                source.mmapBacked() ? "mmapped" : "buffered");
}

/**
 * One "  oracle: ..." line when a ground-truth oracle ran in this
 * process (pmtest_check itself does not run one; the line appears
 * when the binary is linked into an oracle-driving harness). Covered
 * vs tested is the representative-mode pruning win.
 */
void
printOracleStats()
{
    const auto snap = obs::Telemetry::instance().metrics();
    const uint64_t tested =
        snap.counter(obs::Counter::OracleStatesTested);
    if (tested == 0)
        return;
    const uint64_t covered =
        snap.counter(obs::Counter::OracleStatesCovered);
    const uint64_t hits = snap.counter(obs::Counter::OracleMemoHits);
    std::printf("  oracle: %llu states tested covering %llu "
                "(%.1fx reduction), %llu memo hits\n",
                static_cast<unsigned long long>(tested),
                static_cast<unsigned long long>(covered),
                tested ? double(covered) / double(tested) : 1.0,
                static_cast<unsigned long long>(hits));
}

/** One "source_open" event per leaf source of @p source. */
void
emitSourceOpenEvents(obs::EventLog &log, const TraceSource &source)
{
    if (const auto *multi =
            dynamic_cast<const MultiTraceSource *>(&source)) {
        for (const auto &child : multi->children())
            emitSourceOpenEvents(log, *child);
        return;
    }
    log.emit(obs::EventSeverity::Info, "source_open",
             [&](JsonWriter &w) {
                 w.member("source", source.name());
                 const size_t count = source.traceCount();
                 const bool known =
                     count != TraceSource::kUnknownCount;
                 w.member("traces_total_known", known);
                 w.member("traces_total",
                          known ? static_cast<uint64_t>(count) : 0);
                 w.member("bytes_total", source.sizeBytes());
                 w.member("mmap_backed", source.mmapBacked());
             });
}

/**
 * One "finding" event per canonical finding, capped so a pathological
 * input cannot turn the event log into a second copy of the report.
 */
void
emitFindingEvents(obs::EventLog &log, const Report &merged)
{
    constexpr size_t kMaxFindingEvents = 10000;
    size_t emitted = 0;
    for (const auto &finding : merged.findings()) {
        if (emitted++ == kMaxFindingEvents) {
            log.emit(obs::EventSeverity::Warn, "findings_truncated",
                     [&](JsonWriter &w) {
                         w.member("emitted", kMaxFindingEvents);
                         w.member("total",
                                  merged.findings().size());
                     });
            break;
        }
        const auto severity = finding.severity == Severity::Fail
                                  ? obs::EventSeverity::Error
                                  : obs::EventSeverity::Warn;
        log.emit(severity, "finding", [&](JsonWriter &w) {
            w.member("verdict", finding.severity == Severity::Fail
                                    ? "FAIL"
                                    : "WARN");
            w.member("kind", findingKindName(finding.kind));
            w.member("message", finding.message);
            w.member("loc", finding.loc.str());
            w.member("file_id",
                     static_cast<uint64_t>(finding.fileId));
            w.member("trace_id", finding.traceId);
            w.member("op_index",
                     static_cast<uint64_t>(finding.opIndex));
            w.member("hint_valid", finding.hint.valid());
            w.member("hint_verified", finding.hint.verified);
        });
    }
}

/** The header's name for the input set: the path, or "N files". */
std::string
inputLabel(const CheckPlan &plan)
{
    return plan.inputs.size() == 1
               ? plan.inputs[0]
               : std::to_string(plan.inputs.size()) + " files";
}

/**
 * The stdout report: header line (label, totals and model from
 * @p meta) plus summary or finding list.
 */
void
printReportStdout(const CheckPlan &plan, const ReportMeta &meta,
                  size_t workers, const Report &merged)
{
    if (plan.quiet)
        return;
    std::printf("%s: %llu traces, %llu PM operations, model=%s, "
                "%zu workers\n",
                meta.label.c_str(),
                static_cast<unsigned long long>(meta.traceCount),
                static_cast<unsigned long long>(meta.totalOps),
                makeModel(meta.model)->name(), workers);
    if (plan.summary) {
        std::printf("%s", merged.summaryStr().c_str());
        return;
    }
    std::printf("%zu FAIL, %zu WARN\n", merged.failCount(),
                merged.warnCount());
    size_t shown = 0;
    for (const auto &finding : merged.findings()) {
        if (shown++ == plan.maxFindings) {
            std::printf("  ... (%zu more; use --summary)\n",
                        merged.findings().size() - shown + 1);
            break;
        }
        std::printf("  %s\n", finding.str().c_str());
    }
}

/**
 * Write the unified metrics snapshot: run identity, verdict counts,
 * the shared pool/ingest stats rendering, and the telemetry section
 * (counters, per-stage latency histograms, span accounting). Worker
 * runs tag themselves ("worker": "i/N"); a merge names its input by
 * the parts' label.
 */
bool
writeMetricsDoc(const CheckPlan &plan, const ReportMeta &meta,
                size_t workers, const Report &merged,
                const PoolStats &stats)
{
    std::string joined;
    for (const auto &input : plan.inputs) {
        if (!joined.empty())
            joined += ",";
        joined += input;
    }
    JsonWriter w;
    w.beginObject();
    w.member("schema", "pmtest-metrics-v1");
    w.member("tool", plan.tool.c_str());
    w.member("trace_file", plan.merge ? meta.label : joined);
    w.member("model", makeModel(meta.model)->name());
    w.member("traces", meta.traceCount);
    w.member("ops", meta.totalOps);
    w.member("workers", workers);
    w.member("sources", meta.sourceCount);
    if (plan.workerCount > 0)
        w.member("worker", std::to_string(plan.workerIndex) + "/" +
                               std::to_string(plan.workerCount));
    w.key("verdict").beginObject();
    w.member("fail", merged.failCount());
    w.member("warn", merged.warnCount());
    w.member("findings", merged.findings().size());
    w.endObject();
    w.key("pool");
    writePoolStatsJson(w, stats);
    w.key("telemetry");
    obs::Telemetry::instance().writeMetricsJson(w);
    w.endObject();

    std::string error;
    if (!writeJsonFile(plan.metricsJsonPath, w, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return false;
    }
    return true;
}

/**
 * Close a run's audit trail: the finding events, then run_stop with
 * the verdict totals. @return the verdict exit code (0/1).
 */
int
emitVerdictEvents(SessionServices &services, const ReportMeta &meta,
                  const Report &merged)
{
    const int exit_code = merged.failCount() == 0 ? 0 : 1;
    emitFindingEvents(services.eventLog(), merged);
    services.emitRunStop(exit_code, [&](JsonWriter &w) {
        w.member("traces", meta.traceCount);
        w.member("ops", meta.totalOps);
        w.member("fail", merged.failCount());
        w.member("warn", merged.warnCount());
    });
    return exit_code;
}

volatile std::sig_atomic_t g_linger_stop = 0;

void
lingerSignalHandler(int)
{
    g_linger_stop = 1;
}

/**
 * --metrics-linger: keep answering scrapes with the frozen final
 * sample until somebody tells us to go (the CI smoke leg curls here,
 * then SIGTERMs). The verdict exit code is preserved.
 */
void
lingerUntilSignalled(obs::MetricsService &service)
{
    if (service.port() == 0)
        return;
    std::signal(SIGINT, lingerSignalHandler);
    std::signal(SIGTERM, lingerSignalHandler);
    std::fprintf(stderr,
                 "pmtest: run complete; metrics linger on "
                 "http://127.0.0.1:%u (SIGINT/SIGTERM to exit)\n",
                 static_cast<unsigned>(service.port()));
    while (!g_linger_stop)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

/**
 * The gather: load every worker report named by plan.inputs, fold
 * them with mergeReports (which fails closed on an incomplete or
 * inconsistent part set), and render the sequential run's output.
 * The header's worker count resolves the way the plain run's does,
 * so the same --workers= prints the same bytes.
 */
int
runMerge(const CheckPlan &plan)
{
    std::vector<WorkerReport> parts(plan.inputs.size());
    std::string error;
    for (size_t i = 0; i < parts.size(); i++) {
        parts[i].path = plan.inputs[i];
        if (!loadReportFile(plan.inputs[i], &parts[i].report,
                            &parts[i].meta, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
    }
    Report merged;
    ReportMeta meta;
    if (!mergeReports(std::move(parts), &merged, &meta, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }

    size_t workers = 0, decoders = 0;
    resolveThreads(plan, &workers, &decoders);

    SessionServices services;
    obs::ServiceOptions service_options;
    service_options.tool = plan.tool;
    service_options.metricsPort = plan.metricsPort;
    service_options.intervalMs = plan.metricsIntervalMs;
    service_options.progress = plan.progress;
    service_options.eventLogPath = plan.eventLogPath;
    if (!services.start(std::move(service_options), &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    services.emitRunStart(plan.tool.c_str(), [&](JsonWriter &w) {
        w.member("model", makeModel(meta.model)->name());
        w.member("inputs", plan.inputs.size());
        w.member("workers", workers);
        w.member("decoders", decoders);
    });

    printReportStdout(plan, meta, workers, merged);
    if (!plan.metricsJsonPath.empty() &&
        !writeMetricsDoc(plan, meta, workers, merged, PoolStats{}))
        return 2;
    const int exit_code = emitVerdictEvents(services, meta, merged);
    services.stop();
    return exit_code;
}

} // namespace

bool
CheckPlan::finalize(std::string *error, bool *usage_hint)
{
    const auto usage_error = [&](std::string message) {
        *error = std::move(message);
        if (usage_hint)
            *usage_hint = true;
        return false;
    };
    const auto input_error = [&](std::string message) {
        *error = std::move(message);
        if (usage_hint)
            *usage_hint = false;
        return false;
    };

    if (inputArgs.empty())
        return usage_error("missing input trace file");
    std::string expand_error;
    inputs.clear();
    if (!expandInputs(inputArgs, &inputs, &expand_error))
        return input_error(expand_error);
    if (!rejectDuplicates(inputs, &expand_error))
        return input_error(expand_error);

    if (merge) {
        // A merge checks nothing itself: the per-process surfaces
        // belong to the worker runs.
        const std::pair<bool, const char *> per_process[] = {
            {workerCount > 0, "--worker"},
            {!reportOutPath.empty(), "--report-out"},
            {fixHints, "--fix-hints"},
            {showStats, "--stats"},
            {!traceEventsPath.empty(), "--trace-events"},
            {metricsLinger, "--metrics-linger"}};
        for (const auto &[set, flag] : per_process) {
            if (set)
                return usage_error(
                    std::string("--merge cannot combine with ") + flag);
        }
    }
    if (workerCount > 0) {
        if (workerIndex >= workerCount)
            return usage_error(
                "--worker index out of range (want i/N with i < N)");
        if (reportOutPath.empty())
            return usage_error("--worker needs --report-out=FILE");
        if (fixHints)
            return usage_error(
                "--worker cannot combine with --fix-hints");
        if (metricsLinger)
            return usage_error(
                "--worker cannot combine with --metrics-linger");
    }
    return true;
}

bool
SessionServices::start(obs::ServiceOptions options,
                       std::string *error)
{
    return service_.start(std::move(options), error);
}

void
SessionServices::emitRunStart(
    const char *tool, const std::function<void(JsonWriter &)> &extra)
{
    service_.eventLog().emit(obs::EventSeverity::Info, "run_start",
                             [&](JsonWriter &w) {
                                 w.member("tool", tool);
                                 if (extra)
                                     extra(w);
                             });
}

void
SessionServices::emitRunStop(
    int exit_code, const std::function<void(JsonWriter &)> &extra)
{
    service_.eventLog().emit(obs::EventSeverity::Info, "run_stop",
                             [&](JsonWriter &w) {
                                 if (extra)
                                     extra(w);
                                 w.member("exit_code", exit_code);
                             });
}

int
CheckSession::run()
{
    const CheckPlan &plan = plan_;
    const bool worker_mode = plan.workerCount > 0;

    // Span collection must start before the pipeline so capture-side
    // and ingest-side spans land in the timeline.
    if (!plan.traceEventsPath.empty())
        obs::Telemetry::instance().enableSpans(plan.spanSample);
    obs::nameThread("main");

    std::unique_ptr<TraceSource> source;
    bool worker_empty = false;
    {
        std::string error;
        source = buildWorkerSource(plan, &worker_empty, &error);
        if (!source && !worker_empty) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
    }

    size_t workers = 0, decoders = 0;
    resolveThreads(plan, &workers, &decoders);

    // The run's identity: the stdout header, the metrics document and
    // the wire report all read it, so a merge of worker reports can
    // print what this run prints.
    ReportMeta meta;
    meta.workerIndex = plan.workerIndex;
    meta.workerCount = plan.workerCount;
    meta.traceCount = source ? source->traceCount() : 0;
    meta.totalOps = source ? source->totalOps() : 0;
    meta.sourceCount = source ? source->sourceCount() : 0;
    meta.model = plan.model;
    meta.label = inputLabel(plan);

    Report merged;
    PoolStats stats;
    size_t pool_workers = 0;
    bool ingest_ok = true;
    SourceError ingest_error;
    SessionServices services; ///< outlives the pool (linger)
    {
        EnginePool pool(plan.model, workers);
        IngestProgress ingest_progress;

        obs::ServiceOptions service_options;
        service_options.tool = plan.tool;
        service_options.metricsPort = plan.metricsPort;
        service_options.intervalMs = plan.metricsIntervalMs;
        service_options.progress = plan.progress;
        service_options.eventLogPath = plan.eventLogPath;
        service_options.poolSampler = poolGaugeSampler(pool);
        if (source)
            service_options.ingestSampler =
                ingestGaugeSampler(*source, &ingest_progress);
        std::string service_error;
        if (!services.start(std::move(service_options),
                            &service_error)) {
            std::fprintf(stderr, "%s\n", service_error.c_str());
            return 2;
        }
        services.emitRunStart(plan.tool.c_str(), [&](JsonWriter &w) {
            w.member("model", makeModel(plan.model)->name());
            w.member("inputs", plan.inputs.size());
            w.member("workers", workers);
            w.member("decoders", decoders);
            if (worker_mode) {
                w.member("worker",
                         static_cast<uint64_t>(plan.workerIndex));
                w.member("of",
                         static_cast<uint64_t>(plan.workerCount));
            }
        });
        if (source)
            emitSourceOpenEvents(services.eventLog(), *source);

        if (source) {
            IngestOptions ingest_options;
            ingest_options.decoders = decoders;
            ingest_options.batch = plan.batch;
            ingest_options.progress = &ingest_progress;
            IngestStats ingest_stats;
            ingest_ok = ingest(*source, pool, ingest_options,
                               &ingest_stats, &ingest_error);
            merged = pool.takeResults();
            stats = pool.stats();
            stats.ingest = ingest_stats;
        }
        pool_workers = pool.workerCount();

        // Final sample + sampler detach before the pool dies; the
        // scrape server keeps serving the frozen sample.
        services.freeze();
    }
    if (!ingest_ok) {
        std::fprintf(stderr, "%s\n", ingest_error.str().c_str());
        return 2;
    }

    // Canonical (fileId, traceId, opIndex) order: any shard/decoder/
    // worker configuration prints a byte-identical report for the
    // same input set.
    merged.canonicalize();

    // The detect→repair→verify pass: re-open the inputs (the primary
    // source is drained), patch each hinted finding's trace, replay
    // it through the same engine, and emit the fixhints document.
    if (plan.fixHints) {
        std::string error;
        bool replay_empty = false;
        auto replay_source =
            buildWorkerSource(plan, &replay_empty, &error);
        if (!replay_source) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
        SourceError replay_error;
        const HintVerifyStats hint_stats = verifyHints(
            merged, *replay_source, plan.model, &replay_error);
        if (!replay_error.message.empty())
            std::fprintf(stderr, "fix-hints replay: %s\n",
                         replay_error.str().c_str());

        JsonWriter w;
        writeFixHintsJson(w, merged, hint_stats, plan.model);
        std::string write_error;
        if (!writeJsonFile(plan.fixHintsPath, w, &write_error)) {
            std::fprintf(stderr, "%s\n", write_error.c_str());
            return 2;
        }
        if (plan.fixHintsPath != "-" && !plan.quiet) {
            std::printf("fix hints: %zu candidates, %zu verified, "
                        "%zu rejected -> %s\n",
                        hint_stats.candidates, hint_stats.verified,
                        hint_stats.rejected,
                        plan.fixHintsPath.c_str());
        }
    }

    // A worker prints nothing; its report goes out as
    // pmtest-report-v2 wire bytes for a later --merge.
    if (!plan.reportOutPath.empty()) {
        std::string error;
        if (!saveReportFile(plan.reportOutPath, merged, meta,
                            &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
    }

    if (!worker_mode) {
        printReportStdout(plan, meta, pool_workers, merged);
        // An explicit --stats request wins over --quiet.
        if (plan.showStats) {
            if (source && source->sourceCount() > 1)
                printSourceStats(*source);
            std::printf("%s", stats.str().c_str());
            printOracleStats();
        }
    }
    // The machine-readable outputs are files; they are written
    // whatever the stdout flags say.
    if (!plan.metricsJsonPath.empty()) {
        if (!writeMetricsDoc(plan, meta, pool_workers, merged, stats))
            return 2;
    }
    if (!plan.traceEventsPath.empty()) {
        std::string error;
        if (!obs::Telemetry::instance().writeTraceEventsFile(
                plan.traceEventsPath, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
    }

    // Findings go out after the fix-hints replay so hint_verified is
    // final; run_stop closes the audit trail.
    const int exit_code = emitVerdictEvents(services, meta, merged);

    if (plan.metricsLinger)
        lingerUntilSignalled(services.service());
    services.stop();
    return exit_code;
}

int
runCheckTool(const CheckPlan &plan)
{
    if (plan.merge)
        return runMerge(plan);
    CheckSession session(plan);
    return session.run();
}

} // namespace pmtest::core
