/**
 * @file
 * Offline ingest harness: load→verdict wall time and peak-RSS growth
 * of the mmap-parallel ingest pipeline (decoder team feeding the
 * engine pool) against a serial check of the same file (the reader
 * decodes trace by trace into one inline engine), on two file
 * shapes:
 *
 *  - table1_small: many small traces (the Table 1 micro-benchmark
 *    shape) — dispatch-bound, where parallel decode overlapping the
 *    engine pool pays off.
 *  - few_large: a handful of big traces — decode-bound, where the
 *    per-trace frame index lets decoders work on different traces at
 *    once.
 *
 * Phases per shape (in this order, because ru_maxrss is a monotonic
 * high-water mark — the candidates run first so their growth is not
 * masked by the baseline's):
 *  1. mmap + 4 decoders + worker pool        (the pipeline)
 *  2. mmap + 2 decoders + worker pool        (scaling point)
 *  3. mmap + 1 decoder  + worker pool        (overlap only)
 *  4. split across 3 files + 4 decoders      (multi-file path)
 *  5. the 3 part files, checked serially     (multi-file reference)
 *  6. the whole file, checked serially       (the baseline)
 *
 * Every phase produces a canonicalized Report; verdict_match asserts
 * that each configuration's merged report is byte-identical to its
 * serial reference — the determinism contract of the TraceSource
 * pipeline. Single-file phases are compared with the serial
 * baseline. The multi-file phase stamps each part's fileId (0-2)
 * into its findings, so it is compared with phase 5, which must in
 * turn find as many failures as the baseline.
 *
 * Flags:
 *  --smoke        tiny workload; CI uses this to validate the harness
 *                 and capture the JSON.
 *  --json=PATH    where to write the JSON (default BENCH_ingest.json).
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.hh"
#include "core/engine.hh"
#include "core/engine_pool.hh"
#include "core/trace_ingest.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "util/cli.hh"
#include "util/random.hh"
#include "util/clock.hh"

namespace
{

using namespace pmtest;
using namespace pmtest::core;

/** Current peak RSS in KiB (monotonic high-water mark). */
size_t
peakRssKb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<size_t>(usage.ru_maxrss);
}

/**
 * Synthesize traces with a persist/flush pattern; roughly one in
 * sixty-four rounds skips the writeback, so every shape produces
 * findings (the verdict comparison must compare something
 * non-trivial) while the check stage stays op-dominated rather than
 * finding-report-dominated, as in the paper's mostly-correct
 * workloads.
 */
std::vector<Trace>
makeTraces(size_t count, size_t rounds, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Trace> traces;
    traces.reserve(count);
    for (size_t t = 0; t < count; t++) {
        Trace trace(t, static_cast<uint32_t>(t % 4));
        for (size_t i = 0; i < rounds; i++) {
            const uint64_t addr = 64 * rng.below(4096);
            trace.append(PmOp::write(addr, 64));
            if (rng.below(64) != 0)
                trace.append(PmOp::clwb(addr, 64));
            trace.append(PmOp::sfence());
            trace.append(PmOp::isPersist(addr, 64));
        }
        traces.push_back(std::move(trace));
    }
    return traces;
}

/** One timed load→verdict phase. */
struct Phase
{
    std::string name;
    double seconds = 0;
    size_t rssGrowthKb = 0;
    std::string verdict; ///< canonicalized Report::str()
    size_t failCount = 0;
};

/** Drain @p source through ingest() into a pool; canonical verdict. */
Phase
runSource(std::string name, std::unique_ptr<TraceSource> source,
          size_t decoders, size_t workers, Timer &timer,
          size_t rss_before)
{
    Phase phase;
    phase.name = std::move(name);

    PoolOptions options;
    options.workers = workers;
    EnginePool pool(options);
    IngestOptions ingest_options;
    ingest_options.decoders = decoders;
    ingest_options.batch = 32;
    IngestStats stats;
    SourceError error;
    if (!ingest(*source, pool, ingest_options, &stats, &error)) {
        std::fprintf(stderr, "ingest failed: %s\n",
                     error.str().c_str());
        std::exit(1);
    }
    Report merged = pool.takeResults();
    merged.canonicalize();

    phase.seconds = timer.elapsedSec();
    phase.rssGrowthKb = peakRssKb() - rss_before;
    phase.verdict = merged.str();
    phase.failCount = merged.failCount();
    return phase;
}

/** Trace file → decoder team → engine pool. */
Phase
runPipeline(const std::string &path, size_t decoders, size_t workers)
{
    const size_t rss_before = peakRssKb();
    Timer timer;

    std::string error;
    auto source = openTraceSource(path, IngestMode::Mmap, 0, &error);
    if (!source) {
        std::fprintf(stderr, "%s\n", error.c_str());
        std::exit(1);
    }
    return runSource("v2_mmap_" + std::to_string(decoders) + "dec",
                     std::move(source), decoders, workers, timer,
                     rss_before);
}

/** The same trace set split across several v2 files. */
Phase
runMultiFile(const std::vector<std::string> &paths, size_t decoders,
             size_t workers)
{
    std::string name = "v2_multi" + std::to_string(paths.size()) +
                       "_" + std::to_string(decoders) + "dec";
    const size_t rss_before = peakRssKb();
    Timer timer;

    std::vector<std::unique_ptr<TraceSource>> children;
    children.reserve(paths.size());
    for (size_t i = 0; i < paths.size(); i++) {
        std::string error;
        auto child = openTraceSource(paths[i], IngestMode::Mmap,
                                     static_cast<uint32_t>(i),
                                     &error);
        if (!child) {
            std::fprintf(stderr, "%s\n", error.c_str());
            std::exit(1);
        }
        children.push_back(std::move(child));
    }
    auto source =
        std::make_unique<MultiTraceSource>(std::move(children));
    return runSource(std::move(name), std::move(source), decoders,
                     workers, timer, rss_before);
}

/**
 * @p paths, each opened under its own fileId and checked trace by
 * trace on one engine: the serial reference for the other phases
 * (one path: the single-file baseline; the part files of
 * runMultiFile: the multi-file reference). It bypasses ingest() and
 * the pool, so a pipeline defect cannot hide in both sides of the
 * comparison.
 */
Phase
runSerialParts(const std::vector<std::string> &paths)
{
    Phase phase;
    phase.name = paths.size() == 1
                     ? "v2_serial"
                     : "v2_multi" + std::to_string(paths.size()) +
                           "_serial";
    const size_t rss_before = peakRssKb();
    Timer timer;

    Engine engine(ModelKind::X86);
    Report merged;
    for (size_t i = 0; i < paths.size(); i++) {
        std::string error;
        auto source = openTraceSource(paths[i], IngestMode::Mmap,
                                      static_cast<uint32_t>(i), &error);
        if (!source) {
            std::fprintf(stderr, "%s\n", error.c_str());
            std::exit(1);
        }
        std::vector<Trace> batch;
        SourceError decode_error;
        TraceSource::Pull result;
        while ((result = source->pull(32, &batch, &decode_error)) ==
               TraceSource::Pull::Items) {
            for (const auto &trace : batch)
                merged.merge(engine.check(trace));
            batch.clear();
        }
        if (result == TraceSource::Pull::Error) {
            std::fprintf(stderr, "decode failed: %s\n",
                         decode_error.str().c_str());
            std::exit(1);
        }
    }
    merged.canonicalize();

    phase.seconds = timer.elapsedSec();
    phase.rssGrowthKb = peakRssKb() - rss_before;
    phase.verdict = merged.str();
    phase.failCount = merged.failCount();
    return phase;
}

/** A file shape: trace population + its measured phases. */
struct Shape
{
    std::string name;
    size_t traceCount = 0;
    size_t totalOps = 0;
    size_t fileBytesV2 = 0;
    std::vector<Phase> phases;
    bool verdictMatch = false;

    double
    speedup() const
    {
        // baseline (last phase) over the 4-decoder pipeline (first).
        return phases.back().seconds / phases.front().seconds;
    }
};

Shape
runShape(const std::string &name, size_t count, size_t rounds,
         size_t workers)
{
    const auto traces = makeTraces(count, rounds, 0xbeef + count);
    Shape shape;
    shape.name = name;
    shape.traceCount = traces.size();
    for (const auto &t : traces)
        shape.totalOps += t.size();

    const std::string base =
        "/tmp/pmtest_bench_ingest_" + std::to_string(getpid()) + "_" +
        name;
    const std::string v2_path = base + ".v2.trace";
    if (!saveTracesToFile(v2_path, traces)) {
        std::fprintf(stderr, "cannot write trace files under /tmp\n");
        std::exit(1);
    }

    // The same trace set split across three v2 part files, for the
    // multi-file ingest phase.
    std::vector<std::string> part_paths;
    {
        const size_t parts = 3;
        size_t at = 0;
        for (size_t p = 0; p < parts; p++) {
            const size_t take =
                (traces.size() - at) / (parts - p);
            std::vector<Trace> part(traces.begin() + at,
                                    traces.begin() + at + take);
            at += take;
            const std::string path =
                base + ".part" + std::to_string(p) + ".trace";
            if (!saveTracesToFile(path, part)) {
                std::fprintf(stderr,
                             "cannot write trace files under /tmp\n");
                std::exit(1);
            }
            part_paths.push_back(path);
        }
    }

    {
        std::string error;
        auto reader = TraceFileReader::open(v2_path, IngestMode::Mmap,
                                            &error);
        if (!reader) {
            std::fprintf(stderr, "%s\n", error.c_str());
            std::exit(1);
        }
        shape.fileBytesV2 = reader->sizeBytes();
    }

    // Candidate phases first: ru_maxrss only ever rises, so later
    // phases would otherwise report zero growth no matter what they
    // allocate.
    shape.phases.push_back(runPipeline(v2_path, 4, workers));
    shape.phases.push_back(runPipeline(v2_path, 2, workers));
    shape.phases.push_back(runPipeline(v2_path, 1, workers));
    Phase multi = runMultiFile(part_paths, 4, workers);
    Phase parts_serial = runSerialParts(part_paths);
    Phase serial = runSerialParts({v2_path});

    const auto same = [](const Phase &a, const Phase &b) {
        return a.verdict == b.verdict && a.failCount == b.failCount;
    };
    shape.verdictMatch = same(multi, parts_serial) &&
                         parts_serial.failCount == serial.failCount;
    for (const auto &phase : shape.phases)
        shape.verdictMatch = shape.verdictMatch && same(phase, serial);
    shape.phases.push_back(std::move(multi));
    shape.phases.push_back(std::move(parts_serial));
    shape.phases.push_back(std::move(serial));

    std::remove(v2_path.c_str());
    for (const auto &path : part_paths)
        std::remove(path.c_str());
    return shape;
}

void
printShape(const Shape &shape)
{
    std::printf("%s: %zu traces, %zu ops, v2 file %.1f MiB\n",
                shape.name.c_str(), shape.traceCount, shape.totalOps,
                shape.fileBytesV2 / (1024.0 * 1024.0));
    for (const auto &phase : shape.phases) {
        std::printf("  %-18s %8.3f s   rss +%zu KiB   %zu FAIL\n",
                    phase.name.c_str(), phase.seconds,
                    phase.rssGrowthKb, phase.failCount);
    }
    std::printf("  speedup (serial / mmap 4dec): %.2fx, "
                "verdict %s\n",
                shape.speedup(),
                shape.verdictMatch ? "identical" : "MISMATCH");
}

bool
writeJson(const std::string &path, const std::vector<Shape> &shapes,
          bool smoke)
{
    JsonWriter w;
    w.beginObject();
    w.member("bench", "ingest");
    w.member("smoke", smoke);
    w.member("scale", pmtest::bench::scale());
    w.key("shapes").beginArray();
    for (const Shape &shape : shapes) {
        w.beginObject();
        w.member("name", shape.name);
        w.member("traces", shape.traceCount);
        w.member("ops", shape.totalOps);
        w.member("v2_bytes", shape.fileBytesV2);
        w.member("verdict_match", shape.verdictMatch);
        w.member("speedup", shape.speedup(), 3);
        w.key("phases").beginArray();
        for (const Phase &phase : shape.phases) {
            w.beginObject();
            w.member("name", phase.name);
            w.member("seconds", phase.seconds, 6);
            w.member("rss_growth_kb", phase.rssGrowthKb);
            w.member("fail_count", phase.failCount);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return pmtest::bench::writeJsonFile(path, w);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json_path = "BENCH_ingest.json";
    std::string metrics_path;
    std::string trace_events_path;
    pmtest::util::CliParser cli("bench_ingest");
    cli.addFlag("--smoke", &smoke, "tiny deterministic run for CI");
    cli.addString("--json", &json_path,
                  "result document path (default BENCH_ingest.json)");
    cli.addString("--metrics-json", &metrics_path,
                  "write the pmtest-metrics-v1 snapshot");
    cli.addString("--trace-events", &trace_events_path,
                  "write a Chrome trace-event timeline");
    cli.positionalCount(0, 0);
    const auto cli_status = cli.parse(argc, argv);
    if (cli_status != pmtest::util::CliStatus::Ok)
        return pmtest::util::cliExitCode(cli_status);
    if (!trace_events_path.empty())
        obs::Telemetry::instance().enableSpans();

    pmtest::bench::banner("Ingest",
                          "mmap-parallel pipeline vs serial "
                          "check, load->verdict");

    const size_t s = pmtest::bench::scale();
    const size_t workers = 4;
    std::vector<Shape> shapes;
    if (smoke) {
        shapes.push_back(
            runShape("table1_small", 400, 32, workers));
        shapes.push_back(runShape("few_large", 8, 4000, workers));
    } else {
        shapes.push_back(
            runShape("table1_small", 4000 * s, 48, workers));
        shapes.push_back(
            runShape("few_large", 16, 40000 * s, workers));
    }

    bool all_match = true;
    for (const auto &shape : shapes) {
        printShape(shape);
        all_match = all_match && shape.verdictMatch;
    }

    if (!writeJson(json_path, shapes, smoke))
        return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
    if (!metrics_path.empty() &&
        !pmtest::bench::writeBenchMetricsJson(metrics_path,
                                              "bench_ingest"))
        return 1;
    if (!trace_events_path.empty()) {
        std::string error;
        if (!obs::Telemetry::instance().writeTraceEventsFile(
                trace_events_path, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }
    }
    return all_match ? 0 : 1;
}
