/**
 * @file
 * offline_small / offline_large: generated trace files checked by the
 * pmtest_check binary (end-to-end run) or by the library layers one
 * at a time (traced run). Every verdict is compared with the
 * generator's known answer.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>

#include "core/api.hh"
#include "layers.hh"
#include "spans.hh"
#include "trace/trace_io.hh"
#include "util/clock.hh"
#include "util/cpu.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench
{

using namespace pmtest;

namespace
{

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 5;

/** One finished pmtest_check invocation. */
struct Invocation
{
    uint64_t wallNs = 0;
    double maxRssMb = 0;
    int exitCode = -1;
};

/** Lists every finding: no input has this many ops. */
constexpr uint64_t kAllFindings = 1000000000;

/** Run pmtest_check on @p input with stdout captured in @p out. */
Invocation
invokeCheck(const std::string &input, const std::string &out,
            const std::string &err)
{
    const std::string bin = PERFBENCH_PMTEST_CHECK;
    const std::string flag = "--max-findings=" + std::to_string(kAllFindings);
    std::vector<char *> argv = {const_cast<char *>(bin.c_str()),
                                const_cast<char *>(flag.c_str()),
                                const_cast<char *>(input.c_str()), nullptr};
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, out.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, 2, err.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    Invocation inv;
    const Timer timer;
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, bin.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0)
        die("cannot start " + bin + ": " + std::strerror(rc));
    int status = 0;
    struct rusage usage{};
    if (wait4(pid, &status, 0, &usage) != pid)
        die("wait4 failed for pmtest_check");
    inv.wallNs = timer.elapsedNs();
    inv.maxRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    inv.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return inv;
}

/**
 * Runs pmtest_check from a helper process forked while this process is
 * still small. A child's ru_maxrss also counts the memory of the
 * process that started it, so starting pmtest_check from here after
 * generating (and holding) the input would charge this process's heap
 * to pmtest_check.
 */
class Launcher
{
  public:
    Launcher(std::string input, std::string out, std::string err)
    {
        int request[2], reply[2];
        if (pipe(request) != 0 || pipe(reply) != 0)
            die("pipe failed");
        pid_ = fork();
        if (pid_ < 0)
            die("fork failed");
        if (pid_ == 0) {
            close(request[1]);
            close(reply[0]);
            char go = 0;
            while (read(request[0], &go, 1) == 1) {
                const Invocation inv = invokeCheck(input, out, err);
                if (write(reply[1], &inv, sizeof(inv)) != sizeof(inv))
                    _exit(2);
            }
            _exit(0);
        }
        close(request[0]);
        close(reply[1]);
        request_ = request[1];
        reply_ = reply[0];
    }

    ~Launcher()
    {
        close(request_);
        close(reply_);
        waitpid(pid_, nullptr, 0);
    }

    Launcher(const Launcher &) = delete;
    Launcher &operator=(const Launcher &) = delete;

    /** One pmtest_check run, timed by the helper. */
    Invocation
    run()
    {
        const char go = 1;
        Invocation inv;
        if (write(request_, &go, 1) != 1 ||
            read(reply_, &inv, sizeof(inv)) != sizeof(inv))
            die("pmtest_check launcher failed");
        return inv;
    }

  private:
    pid_t pid_ = -1;
    int request_ = -1;
    int reply_ = -1;
};

/** pmtest_check's stdout, reduced to what the verdict check needs. */
struct CheckOutput
{
    uint64_t traces = 0;
    uint64_t ops = 0;
    uint64_t failCount = 0; ///< from the "N FAIL, M WARN" line
    uint64_t warnCount = 0;
    bool truncated = false;
    Verdict verdict;
};

CheckOutput
parseCheckOutput(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        die("cannot read " + path);
    CheckOutput out;
    char line[4096];
    bool header = false, counts = false;
    while (std::fgets(line, sizeof(line), f)) {
        if (!header) {
            const char *p = std::strstr(line, ": ");
            if (!p || std::sscanf(p, ": %" SCNu64 " traces, %" SCNu64,
                                  &out.traces, &out.ops) != 2)
                die("unexpected pmtest_check header: " + std::string(line));
            header = true;
            continue;
        }
        if (!counts) {
            if (std::sscanf(line, "%" SCNu64 " FAIL, %" SCNu64 " WARN",
                            &out.failCount, &out.warnCount) != 2)
                die("unexpected pmtest_check counts: " + std::string(line));
            counts = true;
            continue;
        }
        const bool fail = std::strncmp(line, "  FAIL(", 7) == 0;
        const bool warn = std::strncmp(line, "  WARN(", 7) == 0;
        if (!fail && !warn) {
            out.truncated = true;
            continue;
        }
        const char *tag = std::strrchr(line, '[');
        Identity id;
        if (!tag ||
            std::sscanf(tag, "[f%" SCNu32 ":t%" SCNu64 ":op%" SCNu64 "]",
                        &id.file, &id.trace, &id.op) != 3)
            die("finding without identity: " + std::string(line));
        (fail ? out.verdict.fails : out.verdict.warns).push_back(id);
    }
    std::fclose(f);
    std::sort(out.verdict.fails.begin(), out.verdict.fails.end());
    std::sort(out.verdict.warns.begin(), out.verdict.warns.end());
    return out;
}

/** The generated input on disk, as the checks see it. */
struct Inputs
{
    std::string file;
    uint64_t traces = 0;
    uint64_t ops = 0;
    std::vector<Identity> expected; ///< read back from the answer file
};

/**
 * Generate and write the input several times; setup_s is the median.
 * The known answer is read back from its file, so the file is what
 * every check compares against.
 */
Inputs
setUp(const Options &opt, std::vector<double> *setup_s)
{
    const OfflineShape shape = offlineShape(opt.workload, opt.smoke);
    Inputs in;
    in.file = opt.workDir + "/input.trace";
    const std::string answer = opt.workDir + "/expected.txt";
    std::vector<Identity> first;
    for (int rep = 0; rep < kSetupReps; rep++) {
        const Timer timer;
        Generated gen = generate(shape, opt.seed, 0);
        if (!saveTracesToFile(in.file, gen.traces) ||
            !writeExpected(answer, gen.mustFail))
            die("cannot write inputs under " + opt.workDir);
        setup_s->push_back(timer.elapsedSec());
        if (rep == 0)
            first = gen.mustFail;
        else if (gen.mustFail != first)
            die("generator is not deterministic for seed " +
                std::to_string(opt.seed));
        in.traces = gen.traces.size();
        in.ops = gen.ops;
    }
    // Write the input back to disk now, so writeback does not run
    // during the timed checks.
    for (const std::string &path : {in.file, answer}) {
        const int fd = open(path.c_str(), O_RDONLY);
        if (fd < 0 || fdatasync(fd) != 0 || close(fd) != 0)
            die("cannot sync " + path);
    }
    if (opt.corruptExpected && !corruptExpected(answer))
        die("cannot corrupt " + answer);
    if (!readExpected(answer, &in.expected))
        die("malformed known-answer file " + answer);
    return in;
}

/** Check one pmtest_check run's output against the known answer. */
void
checkInvocation(const Inputs &in, const Invocation &inv,
                const std::string &out_path, Result &result)
{
    const int want_exit = in.expected.empty() ? 0 : 1;
    if (inv.exitCode != 0 && inv.exitCode != 1)
        die("pmtest_check exited with " + std::to_string(inv.exitCode));
    const CheckOutput out = parseCheckOutput(out_path);
    uint64_t wrong = wrongTraces(in.expected, out.verdict.fails,
                                 out.verdict.warns);
    if (out.traces != in.traces || out.ops != in.ops || out.truncated ||
        out.failCount != out.verdict.fails.size() ||
        out.warnCount != out.verdict.warns.size() ||
        inv.exitCode != want_exit)
        wrong = in.traces;
    result.check(in.traces, wrong);
}

/** The known answer for the traces a slice of checkEach covered. */
std::vector<Identity>
expectedFor(const std::vector<Identity> &expected,
            const std::vector<Trace> &traces, size_t first, size_t count)
{
    std::vector<bool> in_slice(traces.size(), false);
    for (size_t i = 0; i < count; i++)
        in_slice[traces[(first + i) % traces.size()].id()] = true;
    std::vector<Identity> out;
    for (const auto &id : expected)
        if (in_slice[id.trace])
            out.push_back(id);
    return out;
}

void
endToEnd(const Options &opt, const Inputs &in, Launcher &launcher,
         Result &result)
{
    const std::string out_path = opt.workDir + "/check.out";
    const std::vector<Trace> traces = decodeAll(in.file, true).traces;
    // Each round checks a rotating slice of the traces on one engine
    // (a tenth of them, but at least 4), so single-thread latency is
    // sampled all through the run rather than in one burst.
    const size_t slice = std::max<size_t>(traces.size() / 10, 4);

    // Warm-up: page cache and lazy set-up, not timed.
    checkInvocation(in, launcher.run(), out_path, result);

    std::vector<double> wall_s, rss_mb, ratio, decode_s, latency_ns;
    const Timer window;
    for (size_t i = 0; i < kMinSamples || window.elapsedSec() < opt.seconds;
         i++) {
        // Alternate which side of the pair runs first.
        uint64_t decode_ns = 0;
        if (i % 2 == 1)
            decode_ns = decodeAll(in.file, false).ns;
        const Invocation inv = launcher.run();
        if (i % 2 == 0)
            decode_ns = decodeAll(in.file, false).ns;
        checkInvocation(in, inv, out_path, result);
        wall_s.push_back(inv.wallNs / 1e9);
        rss_mb.push_back(inv.maxRssMb);
        decode_s.push_back(decode_ns / 1e9);
        ratio.push_back(static_cast<double>(inv.wallNs) /
                        static_cast<double>(decode_ns));

        const size_t first = i * slice % traces.size();
        const EngineRun engine = checkEach(traces, first, slice);
        result.check(slice,
                     wrongTraces(expectedFor(in.expected, traces, first, slice),
                                 engine.verdict.fails, engine.verdict.warns));
        latency_ns.insert(latency_ns.end(), engine.perTraceNs.begin(),
                          engine.perTraceNs.end());
    }

    const double check_s = median(wall_s);
    result.metric("check_mops", in.ops / check_s / 1e6, "Mop/s");
    result.metric("check_s_p50", check_s, "s");
    result.metric("app_kops", in.traces / check_s / 1e3, "k/s");
    result.metric("slowdown", median(ratio), "x");
    result.metric("op_us_p50", quantile(latency_ns, 0.5) / 1e3, "us");
    result.metric("op_us_p99", quantile(latency_ns, 0.99) / 1e3, "us");
    result.metric("peak_rss_mb", median(rss_mb), "MB");
    result.note("decode_only_s_p50", median(decode_s), "s");
    result.note("check_s_p25", quantile(wall_s, 0.25), "s");
    result.note("check_s_p75", quantile(wall_s, 0.75), "s");
    result.infoNum("check_samples", static_cast<double>(wall_s.size()));
    result.infoNum("latency_samples", static_cast<double>(latency_ns.size()));
}

void
traced(const Options &opt, const Inputs &in, Result &result)
{
    std::vector<Trace> traces;
    const double overhead = measureSharedLayers(
        in.file, in.expected, opt.seconds * 0.5, true, result, &traces);

    // The application-side hand-off: replay each trace through
    // pmtestSubmitTrace on this thread into the framework's pool.
    const util::PipelineLayout layout = util::defaultPipelineLayout();
    pmtestInit(Config{.model = core::ModelKind::X86,
                      .workers = layout.workers});
    std::vector<double> send_us;
    send_us.reserve(traces.size());
    setSpansEnabled(true);
    for (auto &trace : traces) {
        uint64_t ns = 0;
        {
            ScopedSpan span("trace.send", &ns);
            pmtestSubmitTrace(std::move(trace));
        }
        send_us.push_back(ns / 1e3);
    }
    setSpansEnabled(false);
    pmtestGetResult();
    const Verdict verdict = verdictOf(pmtestResults());
    pmtestExit();
    result.check(in.traces,
                 wrongTraces(in.expected, verdict.fails, verdict.warns));

    result.metric("trace.send_us_p50", quantile(send_us, 0.5), "us");
    result.metric("trace.send_us_p99", quantile(send_us, 0.99), "us");
    result.metric("trace.ops_per_request",
                  static_cast<double>(in.ops) / static_cast<double>(in.traces),
                  "count");
    result.metric("tracing.overhead_share", overhead, "share");
}

} // namespace

Result
runOffline(const Options &opt)
{
    Result result;
    std::optional<Launcher> launcher;
    if (!opt.trace)
        launcher.emplace(opt.workDir + "/input.trace",
                         opt.workDir + "/check.out",
                         opt.workDir + "/check.err");
    std::vector<double> setup_s;
    const Inputs in = setUp(opt, &setup_s);
    result.infoNum("traces", static_cast<double>(in.traces));
    result.infoNum("ops", static_cast<double>(in.ops));
    result.infoNum("expected_fail", static_cast<double>(in.expected.size()));
    result.infoNum("setup_samples", static_cast<double>(setup_s.size()));
    if (opt.trace) {
        traced(opt, in, result);
    } else {
        result.metric("setup_s", median(setup_s), "s");
        endToEnd(opt, in, *launcher, result);
    }
    return result;
}

} // namespace perfbench
