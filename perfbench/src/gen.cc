#include "gen.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>

#include "common.hh"
#include "util/random.hh"

namespace perfbench
{

namespace
{

/** Base of the synthetic persistent address space. */
constexpr uint64_t kPmBase = 0x7f0000000000ULL;

/** Source lines the generated ops point at (one per op kind). */
constexpr pmtest::SourceLocation kWriteLoc{"kvstore.c", 101};
constexpr pmtest::SourceLocation kClwbLoc{"kvstore.c", 102};
constexpr pmtest::SourceLocation kFenceLoc{"kvstore.c", 103};
constexpr pmtest::SourceLocation kCheckLoc{"kvstore.c", 104};

} // namespace

OfflineShape
offlineShape(const std::string &workload, bool smoke)
{
    // offline_small: many short traces over a hot 256 KiB range, so
    // per-trace fixed costs dominate (dispatch, merge, findings).
    // offline_large: few long traces over a sparse 8 MiB range, so
    // decode and the shadow-map kernel dominate.
    if (workload == "offline_small") {
        if (smoke)
            return {400, 8, 16, 256 << 10, 8, 8, 256};
        return {20000, 32, 64, 256 << 10, 8, 8, 256};
    }
    if (workload == "offline_large") {
        if (smoke)
            return {4, 2000, 2000, 8 << 20, 64, 8, 64};
        return {16, 78000, 78000, 8 << 20, 64, 8, 64};
    }
    die("no offline shape for workload '" + workload + "'");
}

Generated
generate(const OfflineShape &shape, uint64_t seed, uint32_t file)
{
    using pmtest::PmOp;
    pmtest::Rng rng(seed ^ (static_cast<uint64_t>(file) << 32));
    Generated out;
    out.traces.reserve(shape.traces);
    for (size_t t = 0; t < shape.traces; t++) {
        const size_t rounds =
            shape.roundsMin +
            rng.below(shape.roundsMax - shape.roundsMin + 1);
        pmtest::Trace trace(t, static_cast<uint32_t>(t % 4));
        trace.reserve(rounds * 4);
        for (size_t r = 0; r < rounds; r++) {
            const uint64_t size =
                8 * (shape.sizeMin / 8 +
                     rng.below((shape.sizeMax - shape.sizeMin) / 8 + 1));
            const uint64_t addr =
                kPmBase + 8 * rng.below((shape.rangeBytes - size) / 8 + 1);
            const bool skip = rng.below(shape.skipOneIn) == 0;
            trace.append(PmOp::write(addr, size, kWriteLoc));
            if (!skip)
                trace.append(PmOp::clwb(addr, size, kClwbLoc));
            trace.append(PmOp::sfence(kFenceLoc));
            if (skip)
                out.mustFail.push_back({file, t, trace.size()});
            trace.append(PmOp::isPersist(addr, size, kCheckLoc));
        }
        out.ops += trace.size();
        out.traces.push_back(std::move(trace));
    }
    return out;
}

bool
writeExpected(const std::string &path, const std::vector<Identity> &ids)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "# perfbench known answer: file trace op\n");
    for (const auto &id : ids)
        std::fprintf(f, "%" PRIu32 " %" PRIu64 " %" PRIu64 "\n", id.file,
                     id.trace, id.op);
    return std::fclose(f) == 0;
}

bool
readExpected(const std::string &path, std::vector<Identity> *ids)
{
    FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return false;
    ids->clear();
    char line[256];
    bool ok = true;
    while (std::fgets(line, sizeof(line), f)) {
        if (line[0] == '#')
            continue;
        Identity id;
        if (std::sscanf(line, "%" SCNu32 " %" SCNu64 " %" SCNu64,
                        &id.file, &id.trace, &id.op) != 3) {
            ok = false;
            break;
        }
        ids->push_back(id);
    }
    std::fclose(f);
    std::sort(ids->begin(), ids->end());
    return ok;
}

bool
corruptExpected(const std::string &path)
{
    std::vector<Identity> ids;
    if (!readExpected(path, &ids) || ids.empty())
        return false;
    ids.front().op = ~uint64_t{0} >> 1;
    std::sort(ids.begin(), ids.end());
    return writeExpected(path, ids);
}

uint64_t
wrongTraces(const std::vector<Identity> &expected,
            const std::vector<Identity> &fails,
            const std::vector<Identity> &warns)
{
    std::vector<Identity> diff;
    std::set_symmetric_difference(expected.begin(), expected.end(),
                                  fails.begin(), fails.end(),
                                  std::back_inserter(diff));
    diff.insert(diff.end(), warns.begin(), warns.end());
    std::vector<std::pair<uint32_t, uint64_t>> keys;
    keys.reserve(diff.size());
    for (const auto &id : diff)
        keys.emplace_back(id.file, id.trace);
    std::sort(keys.begin(), keys.end());
    return static_cast<uint64_t>(
        std::unique(keys.begin(), keys.end()) - keys.begin());
}

} // namespace perfbench
