#include "trace/fix_hint.hh"

#include <algorithm>
#include <cstddef>

#include "util/logging.hh"

namespace pmtest
{

namespace
{

/** Location stamped on every op the patcher inserts. */
constexpr SourceLocation kFixLoc("<fix-hint>", 1);

/** Whether [a,a+as) and [b,b+bs) share at least one byte. */
bool
overlaps(uint64_t a, uint64_t as, uint64_t b, uint64_t bs)
{
    return a < b + bs && b < a + as;
}

/** Whether @p type is a writeback op any model emits. */
bool
isFlushOp(OpType type)
{
    return type == OpType::Clwb || type == OpType::ClflushOpt ||
           type == OpType::Clflush || type == OpType::DcCvap;
}

/**
 * Per-original-index edit plan: ops to splice in front of each index,
 * plus a deletion mark. Resolving every hint against this plan — and
 * only then rebuilding the op vector once — means hints can never
 * shift one another's anchors.
 */
struct EditPlan
{
    explicit EditPlan(size_t n) : inserts(n + 1), deleted(n, false) {}

    std::vector<std::vector<PmOp>> inserts; ///< inserts[i]: before op i
    std::vector<bool> deleted;

    bool
    addInsert(size_t index, const PmOp &op)
    {
        if (index >= inserts.size())
            return false;
        inserts[index].push_back(op);
        return true;
    }

    bool
    markDeleted(size_t index)
    {
        if (index >= deleted.size())
            return false;
        deleted[index] = true;
        return true;
    }
};

/** Build the flushOp record a hint asks for. */
PmOp
makeFlush(const FixHint &hint)
{
    return {hint.flushOp, hint.addr, hint.size, 0, 0, kFixLoc};
}

/** Build the fenceOp record a hint asks for. */
PmOp
makeFence(const FixHint &hint)
{
    return {hint.fenceOp, 0, 0, 0, 0, kFixLoc};
}

/**
 * Resolve one hint into @p plan. Returns false when the anchor does
 * not match the trace (index out of range, delete target of the wrong
 * type) — the hint then patches nothing, and replay verification will
 * reject it rather than silently corrupting the trace.
 */
bool
resolveHint(const std::vector<PmOp> &ops, const FixHint &hint,
            EditPlan &plan)
{
    switch (hint.action) {
      case FixAction::None:
        return false;
      case FixAction::InsertFlush:
        return plan.addInsert(hint.opIndex, makeFlush(hint));
      case FixAction::InsertFence:
        return plan.addInsert(hint.opIndex, makeFence(hint));
      case FixAction::InsertFlushFence:
        return plan.addInsert(hint.opIndex, makeFlush(hint)) &&
               plan.addInsert(hint.opIndex, makeFence(hint));
      case FixAction::InsertOrdering: {
        // Order A before B: the machinery must sit in front of B's
        // first write, which we locate by scanning ops before the
        // failing checker. Fall back to the checker itself when no
        // such write exists (B may have been written in an earlier,
        // already-sealed trace).
        const size_t limit = std::min<size_t>(hint.opIndex, ops.size());
        size_t at = limit;
        for (size_t i = 0; i < at; i++) {
            const PmOp &op = ops[i];
            if (op.type == OpType::Write &&
                overlaps(op.addr, op.size, hint.addrB, hint.sizeB)) {
                at = i;
                break;
            }
        }
        bool need_flush = hint.withFlush;
        for (size_t i = 0; need_flush && i < at; i++) {
            // A writeback of A already in place before the insertion
            // point: the fence alone completes it.
            if (isFlushOp(ops[i].type) &&
                overlaps(ops[i].addr, ops[i].size, hint.addr,
                         hint.size)) {
                need_flush = false;
            }
        }
        if (need_flush) {
            if (!plan.addInsert(at, makeFlush(hint)))
                return false;
            // Retire the writeback the inserted one replaces — the
            // first later flush entirely inside [addr,size) would
            // otherwise target already-persistent data and trade the
            // ordering FAIL for an unnecessary-flush WARN.
            for (size_t i = at; i < limit; i++) {
                const PmOp &op = ops[i];
                if (isFlushOp(op.type) && hint.addr <= op.addr &&
                    op.addr + op.size <= hint.addr + hint.size) {
                    plan.markDeleted(i);
                    break;
                }
            }
        }
        return plan.addInsert(at, makeFence(hint));
      }
      case FixAction::InsertTxAdd: {
        PmOp add{OpType::TxAdd, hint.addr, hint.size, 0, 0, kFixLoc};
        return plan.addInsert(hint.opIndex, add);
      }
      case FixAction::InsertTxEnd: {
        PmOp end{OpType::TxEnd, 0, 0, 0, 0, kFixLoc};
        bool ok = hint.count > 0;
        for (uint32_t i = 0; i < hint.count; i++)
            ok = plan.addInsert(hint.opIndex, end) && ok;
        return ok;
      }
      case FixAction::DeleteFlush:
        if (hint.opIndex >= ops.size() ||
            !isFlushOp(ops[hint.opIndex].type)) {
            return false;
        }
        return plan.markDeleted(hint.opIndex);
      case FixAction::DeleteTxAdd:
        if (hint.opIndex >= ops.size() ||
            ops[hint.opIndex].type != OpType::TxAdd) {
            return false;
        }
        return plan.markDeleted(hint.opIndex);
    }
    panic("unknown FixAction");
}

/** Rebuild the trace from @p plan, preserving identity. */
Trace
materialize(const Trace &trace, const EditPlan &plan)
{
    const std::vector<PmOp> &ops = trace.ops();
    Trace patched(trace.id(), trace.threadId());
    patched.setFileId(trace.fileId());
    patched.reserve(ops.size() + 4);
    for (size_t i = 0; i < ops.size(); i++) {
        for (const PmOp &ins : plan.inserts[i])
            patched.append(ins);
        if (!plan.deleted[i])
            patched.append(ops[i]);
    }
    for (const PmOp &ins : plan.inserts[ops.size()])
        patched.append(ins);
    return patched;
}

} // namespace

const char *
fixActionName(FixAction action)
{
    switch (action) {
      case FixAction::None:
        return "none";
      case FixAction::InsertFlush:
        return "insert-flush";
      case FixAction::InsertFence:
        return "insert-fence";
      case FixAction::InsertFlushFence:
        return "insert-flush-fence";
      case FixAction::InsertOrdering:
        return "insert-ordering";
      case FixAction::InsertTxAdd:
        return "insert-tx-add";
      case FixAction::InsertTxEnd:
        return "insert-tx-end";
      case FixAction::DeleteFlush:
        return "delete-flush";
      case FixAction::DeleteTxAdd:
        return "delete-tx-add";
    }
    panic("unknown FixAction");
}

bool
FixHint::sameEdit(const FixHint &other) const
{
    return action == other.action && addr == other.addr &&
           size == other.size && addrB == other.addrB &&
           sizeB == other.sizeB && opIndex == other.opIndex &&
           flushOp == other.flushOp && fenceOp == other.fenceOp &&
           count == other.count && withFlush == other.withFlush;
}

Trace
applyFixHint(const Trace &trace, const FixHint &hint)
{
    return applyFixHints(trace, {hint});
}

Trace
applyFixHints(const Trace &trace, const std::vector<FixHint> &hints)
{
    EditPlan plan(trace.size());
    bool edited = false;
    std::vector<const FixHint *> applied;
    for (const FixHint &hint : hints) {
        const auto dup = std::find_if(
            applied.begin(), applied.end(),
            [&](const FixHint *seen) { return seen->sameEdit(hint); });
        if (dup != applied.end())
            continue;
        applied.push_back(&hint);
        edited = resolveHint(trace.ops(), hint, plan) || edited;
    }
    if (!edited)
        return trace;
    return materialize(trace, plan);
}

} // namespace pmtest
