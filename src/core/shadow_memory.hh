/**
 * @file
 * Shadow memory: per-address-range persistency status plus the global
 * epoch counter (paper §4.4). Each modified range carries a persist
 * interval (when the data may/must have reached PM) and a flush
 * interval (when an issued writeback may/must have completed). The
 * persistency models drive the transitions; the checkers read the
 * intervals.
 */

#ifndef PMTEST_CORE_SHADOW_MEMORY_HH
#define PMTEST_CORE_SHADOW_MEMORY_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/interval.hh"
#include "core/interval_map.hh"

namespace pmtest::core
{

/** Persistency status of one address range. */
struct RangeStatus
{
    Interval persist{};      ///< persist interval (valid if hasPersist)
    Interval flush{};        ///< flush interval (valid if hasFlush)
    bool hasPersist = false; ///< range was written in this trace
    bool hasFlush = false;   ///< a writeback was issued for the range
};

/** Outcome of scanning a clwb target range, used for WARN rules. */
struct ClwbScan
{
    bool redundant = false;   ///< an open flush interval already covers
                              ///< part of the range (flushed twice
                              ///< without an intervening fence)
    bool unmodified = false;  ///< no write recorded anywhere in range
    bool alreadyClean = false;///< writes exist but all are persisted
                              ///< and no new data is pending
};

/**
 * The per-trace shadow memory. Checked traces are independent: each
 * check starts from a pristine shadow. Engines reuse one instance
 * across traces via reset(), which restores the pristine state while
 * keeping the interval maps' flat storage and the staging buffers
 * allocated — steady-state checking performs no shadow allocations.
 */
class ShadowMemory
{
  public:
    /**
     * @param track_open_writes keep the written-since-dfence set that
     *        completeAllWrites() needs (the HOPS dfence rule). Models
     *        without a dfence pass false and skip that bookkeeping on
     *        every write; the persistency status itself is the same.
     */
    explicit ShadowMemory(bool track_open_writes = true)
        : trackOpenWrites_(track_open_writes)
    {
    }

    /**
     * Restore the pristine (start-of-trace) state. Equivalent to
     * constructing a fresh instance except that the backing storage
     * of the interval maps keeps its capacity.
     */
    void
    reset()
    {
        timestamp_ = 0;
        map_.clear();
        pendingFlushes_.clear();
        openWrites_.clear();
    }

    /** Current global timestamp (epoch). */
    Epoch timestamp() const { return timestamp_; }

    /** Advance the epoch (every ordering point does this). */
    void bumpTimestamp() { timestamp_++; }

    /**
     * Record a store: clears any existing status over the range, then
     * opens a persist interval at the current epoch.
     */
    void recordWrite(const AddrRange &range);

    /**
     * Record @p n stores at once through the interval maps' batched
     * assign, which sorts nothing and searches once per run instead
     * of once per store. REQUIRES: ranges sorted by addr and pairwise
     * disjoint — under that precondition the resulting shadow state
     * (including entry fragmentation, which leaks into finding
     * messages) is byte-identical to n recordWrite calls in any
     * order. The engine groups consecutive trace writes and flushes
     * the group early when a write would overlap a batched one.
     */
    void recordWriteBatch(const AddrRange *ranges, size_t n);

    /**
     * Scan the range for the clwb WARN rules, without mutating.
     * @see ClwbScan
     */
    ClwbScan scanClwb(const AddrRange &range) const;

    /**
     * Record a writeback: opens a flush interval at the current epoch
     * over the range (preserving persist intervals), and remembers the
     * range as fence-pending.
     */
    void recordClwb(const AddrRange &range);

    /**
     * Complete fence-pending writebacks: close their flush intervals
     * and the persist intervals they cover at the current epoch.
     * Call after bumpTimestamp(), per the paper's sfence rule.
     */
    void completePendingFlushes();

    /**
     * Close the persist intervals of ALL writes recorded so far at the
     * current epoch (the HOPS dfence rule). Panics on a shadow built
     * without open-write tracking, which has no record of them.
     */
    void completeAllWrites();

    /** Whether the written-since-dfence set is kept. */
    bool tracksOpenWrites() const { return trackOpenWrites_; }

    /**
     * Whether every persist interval overlapping @p range is closed by
     * the current epoch (the isPersist condition). Ranges that were
     * never written pass vacuously.
     * @param first_open if non-null and the check fails, receives the
     *        first still-open subrange.
     */
    bool allPersisted(const AddrRange &range,
                      AddrRange *first_open = nullptr) const;

    /**
     * Collect the persist intervals overlapping @p range (clipped),
     * in address order.
     */
    std::vector<std::pair<AddrRange, Interval>>
    persistIntervals(const AddrRange &range) const;

    /**
     * Bounding range of the bytes in @p range whose persist interval
     * is open but which have no open flush interval — the bytes a
     * fence alone cannot persist. Empty when every pending byte
     * already has a writeback in flight (a fence suffices); the fix
     * synthesizers use this to choose between InsertFence and
     * InsertFlushFence.
     */
    AddrRange unflushedSpan(const AddrRange &range) const;

    /** Whether any write was recorded in @p range. */
    bool anyWrite(const AddrRange &range) const;

    /** Number of distinct status entries (diagnostics). */
    size_t entryCount() const { return map_.size(); }

    /**
     * Number of distinct fence-pending writeback ranges. Repeated
     * clwb of the same line coalesces to one entry, keeping
     * completePendingFlushes() linear in *distinct* ranges rather
     * than in issued flushes.
     */
    size_t pendingFlushCount() const { return pendingFlushes_.size(); }

    /**
     * Number of distinct written-since-dfence ranges (HOPS); always 0
     * without open-write tracking.
     */
    size_t openWriteCount() const { return openWrites_.size(); }

  private:
    bool trackOpenWrites_;
    Epoch timestamp_ = 0;
    IntervalMap<RangeStatus> map_;
    /**
     * Ranges clwb'ed since the last fence, coalesced at record time:
     * an interval set, so duplicate flushes of the same line cannot
     * accumulate within an epoch.
     */
    IntervalMap<uint8_t> pendingFlushes_;
    /**
     * Ranges written since the last dfence. HOPS-only: read solely by
     * completeAllWrites(), and left empty (never assigned) unless
     * trackOpenWrites_ is set, so x86 and ARM checking pays nothing
     * for it.
     */
    IntervalMap<uint8_t> openWrites_;
    /**
     * Reused staging buffer for the fence-completion walks: the
     * pending/open entries are collected here (already sorted and
     * disjoint by map invariant) and applied to map_ with one batched
     * overlap walk instead of one binary search per entry.
     */
    std::vector<AddrRange> scratch_;
    /**
     * Reused staging buffer for recordClwb(): the updated entries are
     * collected during the overlap walk (which must not mutate map_)
     * and assigned afterwards, without a fresh allocation per clwb.
     */
    std::vector<std::pair<AddrRange, RangeStatus>> clwbUpdates_;
};

} // namespace pmtest::core

#endif // PMTEST_CORE_SHADOW_MEMORY_HH
