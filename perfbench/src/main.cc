/**
 * @file
 * perfbench: runs one workload of the PMTest benchmark and
 * prints two JSON lines — first how the numbers were taken (host,
 * seed, sample counts, spans, numbers no gate reads), then the result
 * (correct / attempted / failed / metrics). perfbench/run.py builds
 * and invokes it; see perfbench/README.md.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *                    --work-dir DIR [--smoke] [--corrupt-expected]
 *
 * Exit status: 0 when every verdict matched the known answer, 1 when
 * any did not, 2 on a usage or set-up error.
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "spans.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

/** The span dump keeps the spans of one online request in this many. */
constexpr uint64_t kDumpRequestSample = 8;

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "offline_small|offline_large|online_kv --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--smoke] "
                 "[--corrupt-expected]\n");
    std::exit(2);
}

template <typename T>
T
parseNumber(const char *s)
{
    T v{};
    const char *end = s + std::strlen(s);
    const auto [ptr, ec] = std::from_chars(s, end, v);
    if (ec != std::errc{} || ptr != end)
        usage();
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--smoke") {
            opt.smoke = true;
        } else if (a == "--corrupt-expected") {
            opt.corruptExpected = true;
        } else if (a == "--workload" && has_value) {
            opt.workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            opt.seed = parseNumber<uint64_t>(argv[++i]);
        } else if (a == "--seconds" && has_value) {
            opt.seconds = parseNumber<double>(argv[++i]);
        } else if (a == "--trace" && has_value) {
            opt.trace = parseNumber<int>(argv[++i]) != 0;
        } else if (a == "--work-dir" && has_value) {
            opt.workDir = argv[++i];
        } else {
            usage();
        }
    }
    if (opt.workload.empty() || opt.workDir.empty() || opt.seconds <= 0)
        usage();
    return opt;
}

void
printMetrics(const std::vector<Metric> &metrics)
{
    std::printf("{");
    for (size_t i = 0; i < metrics.size(); i++)
        std::printf("%s%s: {\"value\": %s, \"unit\": %s}", i ? ", " : "",
                    jsonStr(metrics[i].name).c_str(),
                    num(metrics[i].value).c_str(),
                    jsonStr(metrics[i].unit).c_str());
    std::printf("}");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    std::error_code ec;
    std::filesystem::create_directories(opt.workDir, ec);
    if (ec)
        die("cannot create " + opt.workDir + ": " + ec.message());

    Result result;
    if (opt.workload == "offline_small" || opt.workload == "offline_large")
        result = runOffline(opt);
    else if (opt.workload == "online_kv")
        result = runOnline(opt);
    else
        usage();

    const double error_rate =
        static_cast<double>(result.failed) /
        static_cast<double>(std::max<uint64_t>(result.attempted, 1));
    if (opt.trace) {
        result.metric("error_rate", error_rate, "share");
        const auto spans = collectSpans();
        for (const auto &[name, sum] : summarizeSpans(spans)) {
            result.note("span." + name + ".count",
                        static_cast<double>(sum.count), "count");
            result.note("span." + name + ".total_ms", sum.totalNs / 1e6, "ms");
            result.note("span." + name + ".self_ms", sum.selfNs / 1e6, "ms");
        }
        const std::string spans_path = opt.workDir + "/spans.jsonl";
        if (!writeSpans(spans_path, spans, kDumpRequestSample))
            die("cannot write " + spans_path);
        result.infoStr("spans_file", spans_path);
    } else {
        result.note("error_rate", error_rate, "share");
    }

    result.infoStr("workload", opt.workload);
    result.infoNum("seed", static_cast<double>(opt.seed));
    result.infoNum("run_seconds", opt.seconds);
    result.infoNum("trace", opt.trace ? 1 : 0);
    result.infoNum("smoke", opt.smoke ? 1 : 0);
    result.infoNum("nproc", std::thread::hardware_concurrency());
    result.infoStr("compiler", PERFBENCH_CXX_COMPILER);
    result.infoStr("build_type", PERFBENCH_BUILD_TYPE);

    std::printf("{\"perfbench\": {");
    for (size_t i = 0; i < result.info.size(); i++)
        std::printf("%s%s: %s", i ? ", " : "",
                    jsonStr(result.info[i].first).c_str(),
                    result.info[i].second.c_str());
    std::printf(", \"extra\": ");
    printMetrics(result.extra);
    std::printf("}}\n");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": ",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    printMetrics(result.metrics);
    std::printf("}\n");
    return result.correct ? 0 : 1;
}
