/**
 * @file
 * The benchmark's workloads. Each takes its seed from Options and
 * hands the program only the inputs generated from it.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstddef>

#include "common.hh"

namespace perfbench
{

/** Fewest timed samples a run takes, however long they last. */
constexpr size_t kMinSamples = 5;

/** offline_small / offline_large. */
Result runOffline(const Options &opt);

/** online_kv. */
Result runOnline(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
