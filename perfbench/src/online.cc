/**
 * @file
 * online_kv: memcached-lite on mnemosyne driven by closed-loop client
 * threads, once natively and once under PMTest with decoupled
 * checking, on the same generated requests. Every GET is checked
 * against the value its client last wrote, and every PMTest run must
 * end with no findings and every sealed trace checked.
 */

#include <array>
#include <cstring>
#include <latch>
#include <thread>

#include "core/api.hh"
#include "layers.hh"
#include "spans.hh"
#include "trace/trace_io.hh"
#include "util/clock.hh"
#include "util/random.hh"
#include "workloads.hh"
#include "workloads/clients.hh"
#include "workloads/memcached_lite.hh"

namespace perfbench
{

using namespace pmtest;

namespace
{

constexpr size_t kKeys = 10000;
/** 2 client threads + 2 engine workers: the 4 cores of the host. */
constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
constexpr size_t kValueBytes = 64;
constexpr size_t kRegionBytes = 16 << 20;
/** The per-request CPU stand-in workloads::ClientConfig uses. */
constexpr size_t kRequestWork = 24;
/** Set-up repetitions per run; set-up is short, so take many. */
constexpr int kSetupReps = 15;

size_t
requestsPerClient(bool smoke)
{
    return smoke ? 2000 : 20000;
}

struct Request
{
    uint32_t key = 0;
    bool set = false;
};

using Streams = std::array<std::vector<Request>, kClients>;

/**
 * The requests of iteration @p iter: a 50/50 SET/GET mix over the
 * preloaded keys. Client c only touches keys k with k % kClients == c,
 * so it knows what every GET must return.
 */
Streams
makeStreams(uint64_t seed, uint64_t iter, size_t per_client)
{
    Streams streams;
    for (size_t c = 0; c < kClients; c++) {
        Rng rng(seed * 0x9e3779b97f4a7c15ULL + iter * kClients + c);
        streams[c].resize(per_client);
        for (auto &req : streams[c]) {
            req.key = static_cast<uint32_t>(
                kClients * rng.below(kKeys / kClients) + c);
            req.set = rng.below(2) == 0;
        }
    }
    return streams;
}

/** A value naming its key and version in its first 16 bytes. */
std::string
valueFor(uint64_t key, uint64_t version)
{
    std::string v(kValueBytes, '\0');
    std::memcpy(v.data(), &key, 8);
    std::memcpy(v.data() + 8, &version, 8);
    for (size_t i = 16; i < kValueBytes; i++)
        v[i] = static_cast<char>('a' + (key + version + i) % 26);
    return v;
}

bool
valueMatches(const std::string &v, uint64_t key, uint64_t version)
{
    uint64_t k = 0, ver = 0;
    if (v.size() != kValueBytes)
        return false;
    std::memcpy(&k, v.data(), 8);
    std::memcpy(&ver, v.data() + 8, 8);
    return k == key && ver == version;
}

struct Server
{
    std::unique_ptr<mnemosyne::Region> region;
    std::unique_ptr<workloads::MemcachedLite> kv;
    std::vector<std::string> keys;
    /** Last version written per key (each key has one client). */
    std::vector<uint64_t> versions;
};

/** Build the server and preload every key natively. */
Server
buildServer()
{
    Server s;
    s.region = std::make_unique<mnemosyne::Region>(kRegionBytes);
    s.kv = std::make_unique<workloads::MemcachedLite>(*s.region);
    s.versions.assign(kKeys, 0);
    s.keys.reserve(kKeys);
    for (size_t k = 0; k < kKeys; k++) {
        s.keys.push_back("key-" + std::to_string(k));
        s.kv->set(s.keys[k], valueFor(k, 0));
    }
    return s;
}

enum class Mode
{
    Native,       ///< framework not initialized
    Pmtest,       ///< decoupled checking, untraced
    PmtestTraced, ///< decoupled checking with request/send spans
    Record,       ///< PMTest capture only; sealed traces are kept
};

struct Iteration
{
    uint64_t wallNs = 0;
    uint64_t drainNs = 0;
    LatencyHistogram latency;
    uint64_t requests = 0;
    uint64_t sets = 0;
    uint64_t badGets = 0;
    uint64_t opsRecorded = 0;
    uint64_t opsChecked = 0;
    uint64_t tracesSealed = 0;
    uint64_t tracesChecked = 0;
    uint64_t findings = 0;
    core::PoolStats stats;
    std::vector<Trace> recorded;
};

volatile uint64_t g_requestSink = 0;

/**
 * Run one iteration: both clients start together once their threads
 * are up, and the clock stops when both are done and, under PMTest,
 * every sealed trace has been checked.
 */
Iteration
runIteration(Server &s, const Streams &streams, Mode mode, uint64_t iter)
{
    Iteration it;
    const bool pm = mode != Mode::Native;
    if (pm)
        pmtestInit(Config{.model = core::ModelKind::X86,
                          .workers = kWorkers});
    if (mode == Mode::PmtestTraced) {
        // Called on the client thread inside pmtestSendTrace, after
        // the seal: times the hand-off into the engine pool.
        pmtestSetTraceSink([](Trace &&trace) {
            ScopedSpan span("trace.send");
            pmtestSubmitTrace(std::move(trace));
        });
    } else if (mode == Mode::Record) {
        // The framework serializes sink calls.
        pmtestSetTraceSink([&it](Trace &&trace) {
            it.recorded.push_back(std::move(trace));
        });
    }

    std::array<LatencyHistogram, kClients> latency;
    std::array<uint64_t, kClients> bad{}, sets{};
    std::latch ready(kClients), go(1);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; c++) {
        clients.emplace_back([&, c] {
            if (pm) {
                pmtestThreadInit();
                pmtestStart();
            }
            const auto &stream = streams[c];
            std::string out;
            ready.count_down();
            go.wait();
            for (size_t j = 0; j < stream.size(); j++) {
                const Request req = stream[j];
                uint64_t ns = 0;
                {
                    ScopedSpan span("workloads.request", &ns,
                                    (iter << 32) | (c << 28) | j);
                    if (req.set) {
                        const std::string v =
                            valueFor(req.key, ++s.versions[req.key]);
                        g_requestSink = workloads::simulateRequestWork(
                            v.data(), v.size(), kRequestWork);
                        s.kv->set(s.keys[req.key], v);
                    } else {
                        if (!s.kv->get(s.keys[req.key], &out))
                            out.clear();
                        g_requestSink = workloads::simulateRequestWork(
                            out.data(), out.size(), kRequestWork);
                    }
                }
                latency[c].add(ns);
                if (req.set)
                    sets[c]++;
                else if (!valueMatches(out, req.key, s.versions[req.key]))
                    bad[c]++;
            }
            if (pm)
                pmtestEnd();
        });
    }
    ready.wait();
    const Timer timer;
    go.count_down();
    for (auto &t : clients)
        t.join();
    if (pm) {
        ScopedSpan span("core.drain", &it.drainNs);
        pmtestGetResult();
    }
    it.wallNs = timer.elapsedNs();

    for (size_t c = 0; c < kClients; c++) {
        it.latency.merge(latency[c]);
        it.requests += streams[c].size();
        it.sets += sets[c];
        it.badGets += bad[c];
    }
    if (pm) {
        it.findings = pmtestResults().findings().size();
        it.stats = pmtestPoolStats();
        it.tracesChecked = it.stats.tracesCompleted;
        for (const auto &w : it.stats.workers)
            it.opsChecked += w.opsProcessed;
        it.opsRecorded = pmtestOpsRecorded();
        // A traced run's sink resubmits each sealed trace, which
        // counts it a second time.
        it.tracesSealed = pmtestTracesSubmitted() /
                          (mode == Mode::PmtestTraced ? 2 : 1);
        pmtestExit();
    }
    return it;
}

uint64_t
absDiff(uint64_t a, uint64_t b)
{
    return a > b ? a - b : b - a;
}

/**
 * Check an iteration against the known answer: every GET saw its
 * client's last write; under PMTest, one sealed trace per SET, every
 * one checked, all recorded ops checked, and no findings.
 */
void
checkIteration(const Iteration &it, Mode mode, bool corrupt, Result &result)
{
    uint64_t bad = it.badGets;
    const uint64_t want = it.sets + (corrupt ? 1 : 0);
    if (mode == Mode::Record) {
        bad += absDiff(it.recorded.size(), want);
    } else if (mode != Mode::Native) {
        bad += it.findings + absDiff(it.tracesSealed, want) +
               absDiff(it.tracesChecked, want) +
               (it.opsChecked == it.opsRecorded ? 0 : 1);
    }
    result.check(it.requests, bad);
}

Server
setUp(std::vector<double> *setup_s)
{
    Server server;
    for (int rep = 0; rep < kSetupReps; rep++) {
        server = Server{};
        const Timer timer;
        server = buildServer();
        pmtestInit(Config{.model = core::ModelKind::X86,
                          .workers = kWorkers});
        pmtestExit();
        setup_s->push_back(timer.elapsedSec());
    }
    return server;
}

void
endToEnd(const Options &opt, Server &s, Result &result)
{
    const size_t per_client = requestsPerClient(opt.smoke);
    // Warm-up pair on a short stream, not timed.
    {
        const Streams warm = makeStreams(opt.seed, 0, per_client / 4);
        checkIteration(runIteration(s, warm, Mode::Native, 0), Mode::Native,
                       false, result);
        checkIteration(runIteration(s, warm, Mode::Pmtest, 0), Mode::Pmtest,
                       opt.corruptExpected, result);
    }

    std::vector<double> pm_s, ratio, kops, mops;
    LatencyHistogram pm_lat, native_lat;
    const Timer window;
    for (uint64_t p = 1; p <= kMinSamples || window.elapsedSec() < opt.seconds;
         p++) {
        const Streams streams = makeStreams(opt.seed, p, per_client);
        Iteration native, pm;
        // Alternate which side of the pair runs first.
        for (int k = 0; k < 2; k++) {
            if ((p + k) % 2 == 0)
                native = runIteration(s, streams, Mode::Native, p);
            else
                pm = runIteration(s, streams, Mode::Pmtest, p);
        }
        checkIteration(native, Mode::Native, false, result);
        checkIteration(pm, Mode::Pmtest, opt.corruptExpected, result);
        pm_s.push_back(pm.wallNs / 1e9);
        ratio.push_back(static_cast<double>(pm.wallNs) /
                        static_cast<double>(native.wallNs));
        kops.push_back(pm.requests / (pm.wallNs / 1e9) / 1e3);
        mops.push_back(pm.opsRecorded / (pm.wallNs / 1e9) / 1e6);
        pm_lat.merge(pm.latency);
        native_lat.merge(native.latency);
    }

    result.metric("check_mops", median(mops), "Mop/s");
    result.metric("check_s_p50", median(pm_s), "s");
    result.metric("app_kops", median(kops), "k/s");
    result.metric("slowdown", median(ratio), "x");
    result.metric("op_us_p50", pm_lat.quantile(0.5) / 1e3, "us");
    result.metric("op_us_p99", pm_lat.quantile(0.99) / 1e3, "us");
    result.metric("peak_rss_mb", selfPeakRssMb(), "MB");
    result.note("workloads.native_op_us_p50", native_lat.quantile(0.5) / 1e3,
                "us");
    result.note("slowdown_p25", quantile(ratio, 0.25), "x");
    result.note("slowdown_p75", quantile(ratio, 0.75), "x");
    result.infoNum("iteration_pairs", static_cast<double>(ratio.size()));
    result.infoNum("latency_samples", static_cast<double>(pm_lat.count()));
    result.infoNum("requests_per_iteration",
                   static_cast<double>(per_client * kClients));
}

void
traced(const Options &opt, Server &s, Result &result)
{
    const size_t per_client = requestsPerClient(opt.smoke);
    std::vector<double> untraced_s, traced_s, drain_ms, stall, steals,
        batches, skew, ops_per_req;
    LatencyHistogram native_lat;
    const Timer window;
    uint64_t p = 1;
    for (; p <= 4 || window.elapsedSec() < opt.seconds * 0.5; p++) {
        const Streams streams = makeStreams(opt.seed, p, per_client);
        const Iteration native = runIteration(s, streams, Mode::Native, p);
        checkIteration(native, Mode::Native, false, result);
        native_lat.merge(native.latency);
        for (int k = 0; k < 2; k++) {
            const bool on = (p + k) % 2 == 1;
            const Mode mode = on ? Mode::PmtestTraced : Mode::Pmtest;
            setSpansEnabled(on);
            const Iteration pm = runIteration(s, streams, mode, p);
            setSpansEnabled(false);
            checkIteration(pm, mode, opt.corruptExpected, result);
            if (!on) {
                untraced_s.push_back(pm.wallNs / 1e9);
                continue;
            }
            traced_s.push_back(pm.wallNs / 1e9);
            drain_ms.push_back(pm.drainNs / 1e6);
            stall.push_back(static_cast<double>(pm.stats.producerStallNanos) /
                            static_cast<double>(pm.wallNs * kClients));
            steals.push_back(static_cast<double>(pm.stats.steals));
            batches.push_back(static_cast<double>(pm.stats.batchesSubmitted));
            skew.push_back(workerSkew(pm.stats));
            ops_per_req.push_back(static_cast<double>(pm.opsRecorded) /
                                  static_cast<double>(pm.requests));
        }
    }
    const auto spans = summarizeSpans(collectSpans());
    const auto send = spans.find("trace.send");
    const std::vector<double> send_ns =
        send == spans.end() ? std::vector<double>{} : send->second.durationsNs;
    result.metric("trace.send_us_p50", quantile(send_ns, 0.5) / 1e3, "us");
    result.metric("trace.send_us_p99", quantile(send_ns, 0.99) / 1e3, "us");
    result.metric("trace.ops_per_request", median(ops_per_req), "count");
    result.metric("core.drain_ms", median(drain_ms), "ms");
    result.metric("core.submit_stall_share", median(stall), "share");
    result.metric("core.steals", median(steals), "count");
    result.metric("core.batches", median(batches), "count");
    result.metric("core.worker_skew", median(skew), "ratio");
    result.metric("tracing.overhead_share",
                  median(traced_s) / median(untraced_s) - 1, "share");
    result.note("workloads.native_op_us_p50", native_lat.quantile(0.5) / 1e3,
                "us");
    result.infoNum("iteration_pairs", static_cast<double>(traced_s.size()));

    // Record one iteration's sealed traces and run the shared layers
    // (open, ingest, decode, engine) on them; none may fail.
    Iteration rec = runIteration(s, makeStreams(opt.seed, p, per_client),
                                 Mode::Record, p);
    checkIteration(rec, Mode::Record, opt.corruptExpected, result);
    const std::string file = opt.workDir + "/recorded.trace";
    if (!saveTracesToFile(file, rec.recorded))
        die("cannot write " + file);
    rec.recorded.clear();
    std::vector<Trace> decoded;
    measureSharedLayers(file, {}, opt.seconds * 0.2, false, result, &decoded);
}

} // namespace

Result
runOnline(const Options &opt)
{
    Result result;
    std::vector<double> setup_s;
    Server server = setUp(&setup_s);
    result.infoNum("setup_samples", static_cast<double>(setup_s.size()));
    result.infoNum("keys", static_cast<double>(kKeys));
    result.infoNum("clients", static_cast<double>(kClients));
    result.infoNum("engine_workers", static_cast<double>(kWorkers));
    if (opt.trace) {
        traced(opt, server, result);
    } else {
        result.metric("setup_s", median(setup_s), "s");
        endToEnd(opt, server, result);
    }
    return result;
}

} // namespace perfbench
