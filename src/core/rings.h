/**
 * @file
 * Cycle-indexed resource throttles for the trace-driven timing model.
 */

#ifndef P10EE_CORE_RINGS_H
#define P10EE_CORE_RINGS_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/serialize.h"

namespace p10ee::core {

/**
 * Largest cycle (exclusive) a restored checkpoint may carry: half the
 * throttle rings' 2^40 range, so a restored run has 2^39 cycles of
 * headroom before any claim could reach the rings' limit. Every
 * loadState of a cycle-valued field rejects values at or above it.
 */
inline constexpr uint64_t kRestoredCycleLimit = 1ull << 39;

/**
 * A per-cycle capacity ring: at most @p width events may claim any one
 * cycle. The ring has 64K slots of one 32-bit word each. Slot
 * `cycle & 0xFFFF` holds the stamp bits the index does not give
 * (`cycle >> 16`) in its high 24 bits and the number of claims at that
 * cycle in its low 8. A count of 0 means the slot is empty, so a new
 * ring is plain zeros, and a probe is one 32-bit load: it matches the
 * slot's stamp against the probed cycle, so cycles 64K apart share a
 * slot without interfering. The ring thus supports sparse,
 * mostly-monotonic claim patterns as long as concurrently active
 * cycles span less than 64K (the in-flight window of the core, bounded
 * by queue sizes and memory latency, is far below that).
 *
 * Limits: cycles below 2^40 (kCycleLimit, asserted by claimAt) and
 * widths up to 255 (kMaxWidth). CoreConfig::validate bounds every
 * width, and restores reject out-of-range cycles before they get here.
 */
class ThrottleRing
{
  public:
    /** Cycles the ring can stamp: 16 index bits + 24 stamp bits. */
    static constexpr uint64_t kCycleLimit = 1ull << 40;
    /** Largest width the 8-bit count can hold. */
    static constexpr int kMaxWidth = 255;

    explicit ThrottleRing(int width) : width_(width), slots_(kSlots, 0)
    {
        P10_ASSERT(width > 0 && width <= kMaxWidth, "throttle width");
    }

    /** Number of events already claimed at @p cycle. */
    int
    usedAt(uint64_t cycle) const
    {
        uint32_t s = slots_[cycle & kMask];
        return (s >> kCountBits) == (cycle >> kIndexBits)
            ? static_cast<int>(s & kCountMask)
            : 0;
    }

    /** True when @p cycle still has capacity. */
    bool hasRoom(uint64_t cycle) const { return usedAt(cycle) < width_; }

    /** First cycle >= @p earliest with capacity (not claimed). */
    uint64_t
    findFree(uint64_t earliest) const
    {
        uint64_t c = earliest;
        while (!hasRoom(c))
            ++c;
        return c;
    }

    /** Claim one slot at @p cycle. @pre hasRoom(cycle). */
    void
    claimAt(uint64_t cycle)
    {
        P10_ASSERT(cycle < kCycleLimit, "throttle cycle beyond ring range");
        uint32_t& s = slots_[cycle & kMask];
        uint32_t stamp = static_cast<uint32_t>(cycle >> kIndexBits)
                         << kCountBits;
        if ((s & ~kCountMask) != stamp)
            s = stamp;
        P10_ASSERT(static_cast<int>(s & kCountMask) < width_,
                   "overclaimed throttle slot");
        ++s;
    }

    /** Find-and-claim: first free cycle >= @p earliest. */
    uint64_t
    record(uint64_t earliest)
    {
        uint64_t c = findFree(earliest);
        claimAt(c);
        return c;
    }

    int width() const { return width_; }

    /**
     * Serialize only the slots that can still influence the future:
     * claimed slots whose cycle (`stamp << 16 | slot`) is >= @p
     * minCycle. Slots below minCycle can never be read again (every
     * later probe targets a cycle >= minCycle, and a slot is consulted
     * only when its cycle equals the probed one), so dropping them
     * keeps checkpoints small: a ring has 64K slots but typically a
     * handful live. Each entry is the full u64 cycle plus a u16 count,
     * in slot order, so the bytes do not depend on the slot encoding.
     */
    void
    saveState(common::BinWriter& w, uint64_t minCycle) const
    {
        w.u64(static_cast<uint64_t>(width_));
        w.u64(kMask);
        uint64_t live = 0;
        for (size_t i = 0; i < kSlots; ++i)
            if (liveAt(i, minCycle))
                ++live;
        w.u64(live);
        for (size_t i = 0; i < kSlots; ++i)
            if (liveAt(i, minCycle)) {
                w.u64(cycleAt(i));
                w.u16(static_cast<uint16_t>(slots_[i] & kCountMask));
            }
    }

    /** Restore from saveState(); fails on geometry or range mismatch. */
    common::Status
    loadState(common::BinReader& r)
    {
        uint64_t width = r.u64();
        uint64_t mask = r.u64();
        if (r.failed() || width != static_cast<uint64_t>(width_) ||
            mask != kMask)
            return common::Error::invalidArgument(
                "throttle ring geometry mismatch");
        uint64_t live = r.u64();
        if (!r.fits(live, 10)) // 8-byte cycle + 2-byte count per entry
            return r.status("throttle ring");
        std::fill(slots_.begin(), slots_.end(), 0u);
        for (uint64_t k = 0; k < live; ++k) {
            uint64_t cycle = r.u64();
            uint16_t count = r.u16();
            if (r.failed() || cycle >= kCycleLimit || count == 0 ||
                count > width_)
                return common::Error::invalidArgument(
                    "throttle ring entry out of range");
            slots_[cycle & kMask] =
                (static_cast<uint32_t>(cycle >> kIndexBits) << kCountBits) |
                count;
        }
        return r.status("throttle ring");
    }

  private:
    static constexpr int kIndexBits = 16;
    static constexpr int kCountBits = 8;
    static constexpr size_t kSlots = size_t{1} << kIndexBits;
    static constexpr uint64_t kMask = kSlots - 1;
    static constexpr uint32_t kCountMask = (1u << kCountBits) - 1;

    /** The cycle slot @p i was claimed at (meaningful when claimed). */
    uint64_t
    cycleAt(size_t i) const
    {
        return (static_cast<uint64_t>(slots_[i] >> kCountBits)
                << kIndexBits) |
               i;
    }

    bool
    liveAt(size_t i, uint64_t minCycle) const
    {
        return (slots_[i] & kCountMask) != 0 && cycleAt(i) >= minCycle;
    }

    int width_;
    std::vector<uint32_t> slots_;
};

/**
 * Fixed-capacity FIFO of cycle stamps — the flat replacement for the
 * per-thread std::deque pipeline queues (ROB, ibuffer, LDQ, STQ and
 * the shared LMQ). The queues' replacement discipline ("pop the oldest
 * entry when at capacity, then push") bounds occupancy by a capacity
 * fixed at beginRun, so one circular buffer with no per-element
 * allocation serves the per-instruction path.
 */
class FifoRing
{
  public:
    FifoRing() = default;

    /** Size the ring for @p cap entries (> 0) and clear it. */
    void
    reset(size_t cap)
    {
        P10_ASSERT(cap > 0, "fifo ring capacity");
        buf_.assign(cap, 0);
        head_ = 0;
        size_ = 0;
    }

    size_t size() const { return size_; }
    size_t capacity() const { return buf_.size(); }
    bool full() const { return size_ == buf_.size(); }

    /** Oldest entry. @pre size() > 0 */
    uint64_t front() const { return buf_[head_]; }

    void
    popFront()
    {
        ++head_;
        if (head_ == buf_.size())
            head_ = 0;
        --size_;
    }

    /** @pre !full() */
    void
    pushBack(uint64_t v)
    {
        size_t tail = head_ + size_;
        if (tail >= buf_.size())
            tail -= buf_.size();
        buf_[tail] = v;
        ++size_;
    }

    /** Serialize occupancy front-to-back (capacity is config-derived
        and re-established by beginRun, so it is validated, not saved). */
    void
    saveState(common::BinWriter& w) const
    {
        w.u64(size_);
        for (size_t i = 0; i < size_; ++i) {
            size_t k = head_ + i;
            if (k >= buf_.size())
                k -= buf_.size();
            w.u64(buf_[k]);
        }
    }

    /** Restore from saveState(); fails when the saved occupancy does
        not fit the ring's (config-derived) capacity or an entry is at
        or above kRestoredCycleLimit. */
    common::Status
    loadState(common::BinReader& r)
    {
        uint64_t n = r.u64();
        if (!r.fits(n, 8) || n > buf_.size())
            return common::Error::invalidArgument(
                "pipeline queue occupancy exceeds capacity");
        head_ = 0;
        size_ = static_cast<size_t>(n);
        for (size_t i = 0; i < size_; ++i) {
            buf_[i] = r.u64();
            if (buf_[i] >= kRestoredCycleLimit)
                return common::Error::invalidArgument(
                    "pipeline queue entry beyond the cycle range");
        }
        return r.status("pipeline queue");
    }

  private:
    std::vector<uint64_t> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
};

/**
 * A serial bandwidth server: each access occupies the resource for a
 * fixed number of cycles; later accesses queue behind earlier ones.
 * Models L2/L3 array ports and memory-channel bandwidth.
 */
class BandwidthServer
{
  public:
    explicit BandwidthServer(uint32_t occupancy) : occupancy_(occupancy) {}

    /**
     * Claim the server at or after @p when.
     * @return the cycle service actually starts (>= when).
     */
    uint64_t
    serve(uint64_t when)
    {
        uint64_t start = when > nextFree_ ? when : nextFree_;
        nextFree_ = start + occupancy_;
        return start;
    }

    void setOccupancy(uint32_t occ) { occupancy_ = occ; }

    /** Serialize the busy horizon (occupancy is config, checked on load). */
    void
    saveState(common::BinWriter& w) const
    {
        w.u32(occupancy_);
        w.u64(nextFree_);
    }

    /** Restore from saveState(); fails if occupancy differs or the
        horizon is at or above kRestoredCycleLimit. */
    common::Status
    loadState(common::BinReader& r)
    {
        uint32_t occ = r.u32();
        uint64_t nextFree = r.u64();
        if (r.failed() || occ != occupancy_)
            return common::Error::invalidArgument(
                "bandwidth server occupancy mismatch");
        if (nextFree >= kRestoredCycleLimit)
            return common::Error::invalidArgument(
                "bandwidth server horizon beyond the cycle range");
        nextFree_ = nextFree;
        return common::okStatus();
    }

  private:
    uint32_t occupancy_;
    uint64_t nextFree_ = 0;
};

} // namespace p10ee::core

#endif // P10EE_CORE_RINGS_H
