/**
 * @file
 * The seeded offline input generator and its known answer. Traces are
 * rounds of write / clwb / sfence / isPersist over one address range;
 * a round whose writeback is skipped leaves its range unflushed, so
 * its isPersist must FAIL and every other isPersist must pass. The
 * generator records exactly those (fileId, traceId, opIndex)
 * identities while it builds the traces, so the expected verdict
 * never comes from the checker under test.
 */

#ifndef PERFBENCH_GEN_HH
#define PERFBENCH_GEN_HH

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace perfbench
{

/** Where a finding points: input file, trace, op within the trace. */
struct Identity
{
    uint32_t file = 0;
    uint64_t trace = 0;
    uint64_t op = 0;

    auto operator<=>(const Identity &) const = default;
};

/** Size and shape of one offline workload's input. */
struct OfflineShape
{
    size_t traces = 0;
    size_t roundsMin = 0;  ///< rounds per trace, uniform in [min, max]
    size_t roundsMax = 0;
    uint64_t rangeBytes = 0; ///< address range the writes land in
    uint32_t skipOneIn = 0;  ///< a writeback is skipped 1 in N rounds
    uint32_t sizeMin = 0;    ///< write size in bytes, multiple of 8
    uint32_t sizeMax = 0;
};

/** The shape of @p workload (offline_small / offline_large). */
OfflineShape offlineShape(const std::string &workload, bool smoke);

/** Generated traces with the identities that must FAIL, sorted. */
struct Generated
{
    std::vector<pmtest::Trace> traces;
    std::vector<Identity> mustFail;
    uint64_t ops = 0;
};

/** Build the input of @p shape from @p seed, for input file @p file. */
Generated generate(const OfflineShape &shape, uint64_t seed,
                   uint32_t file);

/** Save / load a known-answer file (one "file trace op" per line). */
bool writeExpected(const std::string &path,
                   const std::vector<Identity> &ids);
bool readExpected(const std::string &path, std::vector<Identity> *ids);

/**
 * Replace the first identity of the known-answer file at @p path with
 * one no input can produce, so a correct checker must disagree.
 */
bool corruptExpected(const std::string &path);

/**
 * Traces whose verdict differs from the known answer: the distinct
 * (file, trace) pairs in the symmetric difference of the expected and
 * actual FAIL sets, plus those holding any WARN (none is expected).
 * All inputs must be sorted.
 */
uint64_t wrongTraces(const std::vector<Identity> &expected,
                     const std::vector<Identity> &fails,
                     const std::vector<Identity> &warns);

} // namespace perfbench

#endif // PERFBENCH_GEN_HH
