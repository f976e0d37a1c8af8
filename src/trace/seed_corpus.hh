/**
 * @file
 * The seeded-bug corpus: one minimal, deterministic reproduction
 * trace per fixable finding class (x86 model), each op tagged with a
 * synthetic source location naming the class. Shared between the
 * pmtest_seed_corpus tool (which serializes it for the detect→repair
 * →verify loop) and the kernel-equivalence tests (which pin the
 * batched and per-op kernels to identical verdicts on exactly these
 * shapes).
 */

#ifndef PMTEST_TRACE_SEED_CORPUS_HH
#define PMTEST_TRACE_SEED_CORPUS_HH

#include <vector>

#include "trace/trace.hh"

namespace pmtest
{

/** One seeded bug: the class name and its reproduction trace. */
struct SeedTrace
{
    const char *name;
    Trace trace;
};

/**
 * Build the corpus: every Fail-severity class except Malformed
 * (deliberately unfixable), plus the flush-hygiene warns. Fully
 * deterministic — same library version, identical traces (ids 1..n
 * in corpus order, fileId 0).
 */
std::vector<SeedTrace> seedCorpusTraces();

} // namespace pmtest

#endif // PMTEST_TRACE_SEED_CORPUS_HH
