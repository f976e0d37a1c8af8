/**
 * @file
 * A Trace: an ordered, self-contained batch of PM operations and
 * checkers produced by the program under test between two
 * PMTest_SEND_TRACE() calls. Traces are independent of one another
 * (the paper's §4.3): each gets its own shadow memory when checked.
 * A trace owns no strings: its ops' file names have static storage,
 * as __FILE__ literals or interned names (util/source_location.hh),
 * so a trace and every finding derived from it outlive its source.
 */

#ifndef PMTEST_TRACE_TRACE_HH
#define PMTEST_TRACE_TRACE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/pm_op.hh"

namespace pmtest
{

/**
 * An ordered batch of PM operations with identifying metadata.
 *
 * Traces are the unit of hand-off between capture and checking, so
 * they are cheaply movable end-to-end: moving a trace steals its op
 * buffer (no PmOp is copied), appends grow the buffer in doubling
 * chunks from a non-trivial initial capacity (avoiding the tiny
 * first allocations of a cold vector), and nothing ever calls
 * shrink_to_fit — a recycled buffer keeps its capacity.
 */
class Trace
{
  public:
    /** First growth chunk of a cold op buffer. */
    static constexpr size_t kInitialCapacity = 64;

    Trace() = default;
    Trace(uint64_t id, uint32_t thread_id) : id_(id), threadId_(thread_id) {}

    Trace(const Trace &) = default;
    Trace &operator=(const Trace &) = default;
    Trace(Trace &&) noexcept = default;
    Trace &operator=(Trace &&) noexcept = default;

    /** Append one operation record, in program order. */
    void
    append(const PmOp &op)
    {
        if (ops_.size() == ops_.capacity())
            grow(ops_.size() + 1);
        ops_.push_back(op);
    }

    /** Append a sequence of records. */
    void
    append(const std::vector<PmOp> &ops)
    {
        if (ops_.size() + ops.size() > ops_.capacity())
            grow(ops_.size() + ops.size());
        ops_.insert(ops_.end(), ops.begin(), ops.end());
    }

    /** Pre-size the op buffer (never shrinks). */
    void reserve(size_t records) { ops_.reserve(records); }

    /** Records the op buffer can hold without reallocating. */
    size_t capacity() const { return ops_.capacity(); }

    /** All records, in program order. */
    const std::vector<PmOp> &ops() const { return ops_; }

    /** Mutable access for builders (bug injectors rewrite traces). */
    std::vector<PmOp> &mutableOps() { return ops_; }

    /** Number of records. */
    size_t size() const { return ops_.size(); }

    /** True when the trace holds no records. */
    bool empty() const { return ops_.empty(); }

    /** Drop all records (retains identity). */
    void clear() { ops_.clear(); }

    /** Monotonic trace id assigned by the producer. */
    uint64_t id() const { return id_; }

    /** Id of the producing application thread. */
    uint32_t threadId() const { return threadId_; }

    /**
     * Id of the trace *source* this trace came from (0 when there is
     * only one source). Assigned by the ingest layer in input order,
     * so (fileId, id) is a stable identity across any decoder/shard
     * assignment — the key Report::canonicalize sorts by.
     */
    uint32_t fileId() const { return fileId_; }

    /** Set the source id (TraceSource implementations stamp this). */
    void setFileId(uint32_t file_id) { fileId_ = file_id; }

    /** Set identity; used when a capture buffer is sealed into a trace. */
    void
    setIdentity(uint64_t id, uint32_t thread_id)
    {
        id_ = id;
        threadId_ = thread_id;
    }

    /** Multi-line dump for diagnostics. */
    std::string str() const;

  private:
    /** Reserve for at least @p needed records in doubling chunks. */
    void
    grow(size_t needed)
    {
        size_t target = std::max(ops_.capacity() * 2, kInitialCapacity);
        while (target < needed)
            target *= 2;
        ops_.reserve(target);
    }

    std::vector<PmOp> ops_;
    uint64_t id_ = 0;
    uint32_t threadId_ = 0;
    uint32_t fileId_ = 0;
};

} // namespace pmtest

#endif // PMTEST_TRACE_TRACE_HH
