/**
 * @file
 * Tool harness: runs a workload closure under one of the testing
 * tools the paper compares (native / PMTest / pmemcheck stand-in) and
 * reports wall-clock time plus findings. Centralizing setup/teardown
 * keeps every benchmark's measurement loop identical, so slowdown
 * ratios are apples-to-apples.
 */

#ifndef PMTEST_WORKLOADS_TOOL_HARNESS_HH
#define PMTEST_WORKLOADS_TOOL_HARNESS_HH

#include <functional>

#include "core/api.hh"
#include "core/report.hh"

namespace pmtest::workloads
{

/** Which testing tool wraps the workload. */
enum class Tool
{
    Native,          ///< no tool: baseline time
    PMTest,          ///< PMTest with checkers (default configuration)
    PMTestNoCheck,   ///< PMTest tracking only — Fig. 10b's
                     ///< "framework" bar (checkers not annotated)
    PMTestInline,    ///< PMTest with 0 workers (decoupling ablation)
    Pmemcheck,       ///< the synchronous pmemcheck stand-in
};

/** Name for a Tool. */
const char *toolName(Tool tool);

/** Result of one harnessed run. */
struct RunResult
{
    double seconds = 0;      ///< wall-clock time of the workload
    size_t failCount = 0;    ///< FAIL findings reported by the tool
    size_t warnCount = 0;    ///< WARN findings reported by the tool
    uint64_t opsRecorded = 0;///< PM operations traced
    uint64_t traces = 0;     ///< traces submitted
    /**
     * Engine-pool dispatch snapshot taken after the drain (PMTest
     * tools only): per-worker counts and producer stall time explain
     * *why* a worker configuration is fast or slow.
     */
    core::PoolStats poolStats;
};

/**
 * Run @p workload under @p tool.
 *
 * The workload closure receives a flag telling it whether checker
 * annotations should be emitted (true for every tool except
 * PMTestNoCheck and Native; pmemcheck consumes isPersist checkers).
 *
 * @param workers PMTest engine workers (ignored by other tools)
 */
RunResult runUnderTool(Tool tool,
                       const std::function<void(bool checkers)> &workload,
                       size_t workers = 1);

/**
 * A workload with separate setup: `setup(checkers)` builds pools and
 * servers (untimed, untracked) and returns the measured closure.
 * Keeps large pool construction out of the slowdown ratios.
 */
using StagedWorkload =
    std::function<std::function<void()>(bool checkers)>;

/** Like runUnderTool, but only the returned closure is timed. */
RunResult runStaged(Tool tool, const StagedWorkload &workload,
                    size_t workers = 1);

} // namespace pmtest::workloads

#endif // PMTEST_WORKLOADS_TOOL_HARNESS_HH
