/**
 * @file
 * Discrete-event simulation engine.
 *
 * A sliding calendar ring (Brown, CACM 1988) fronts an indexed 4-ary
 * heap. The ring has 4,096 buckets of 64 ps each, so it covers the
 * 262 ns after now's bucket: about a hundred 2,560 ps PCS cycles, which
 * holds the "now + a few cycles" timer class that dominates the
 * cycle-level fabric. An event inside that window is filed once, into
 * bucket `(when >> 6) & 4095`; an event beyond it goes to the overflow
 * heap and moves into the ring when the window reaches it. A 64-word
 * occupancy bitmap plus one summary word finds the next occupied
 * bucket, scanning circularly from now's bucket.
 *
 * Ordering contract: events fire in (time, schedule-sequence) order, so
 * same-timestamp events run in scheduling order regardless of which
 * structure held them. Each bucket is an intrusive list sorted by time
 * and FIFO within a time; the heap breaks ties by push order. Every heap
 * event lies beyond the ring's end, so the head of the first occupied
 * bucket is the global minimum, and no time is in both at once.
 *
 * Events can be cancelled or rescheduled via the EventId handle: the
 * handle encodes a slot index plus a generation counter, so stale
 * handles (fired or already-cancelled events) are rejected without any
 * hash lookup. Cancellation unlinks ring events in O(1) and removes
 * heap events in O(log n); rescheduling migrates freely between ring
 * and heap. Callbacks are SmallFunction (small-buffer optimized,
 * move-only): typical capture sets live inline in the slot table, so
 * scheduling does not allocate.
 */

#ifndef EDM_SIM_EVENT_QUEUE_HPP
#define EDM_SIM_EVENT_QUEUE_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hpp"
#include "common/small_function.hpp"
#include "common/time.hpp"

namespace edm {

/** Opaque handle to a scheduled event, usable for cancellation. */
using EventId = std::uint64_t;

/** Sentinel returned for events that cannot be cancelled. */
inline constexpr EventId kInvalidEvent = 0;

/**
 * Priority queue of timestamped callbacks driving a simulation.
 */
class EventQueue
{
  public:
    using Callback = SmallFunction<void(), 48>;
    using EventId = ::edm::EventId; ///< for generic code over queue types

    /** log2 of one ring bucket's width in ps. */
    static constexpr int kBucketBits = 6;
    /** log2 of the number of ring buckets. */
    static constexpr int kRingBits = 12;
    /**
     * Ring span in ps: an event whose bucket is fewer than 4,096 buckets
     * past now's bucket is filed in the ring, anything later in the heap.
     */
    static constexpr Picoseconds kRingSpan =
        Picoseconds{1} << (kBucketBits + kRingBits);

    /** Current simulation time. */
    Picoseconds now() const { return now_; }

    /**
     * Schedule @p cb at absolute time @p when.
     * @pre when >= now(): scheduling in the past is a logic error.
     */
    EventId schedule(Picoseconds when, Callback cb);

    /** Schedule @p cb at now() + @p delay. */
    EventId scheduleAfter(Picoseconds delay, Callback cb);

    /**
     * Cancel a pending event. Returns true if the event was pending and is
     * now cancelled; false if it already fired or was already cancelled.
     */
    bool cancel(EventId id);

    /**
     * Move a pending event to absolute time @p when (keeping its
     * callback). The event is re-sequenced: among events at the new
     * timestamp it fires after those already scheduled there. Returns
     * false if the event already fired or was cancelled.
     * @pre when >= now()
     */
    bool reschedule(EventId id, Picoseconds when);

    /** True if @p id refers to an event that has not yet fired. */
    bool isPending(EventId id) const;

    /** True if no runnable events remain. */
    bool empty() const { return pending() == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return heap_.size() + ring_count_; }

    /** Total number of events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Run events until the queue drains or time would exceed @p horizon.
     * Returns the number of events executed.
     */
    std::uint64_t run(Picoseconds horizon = INT64_MAX);

    /**
     * Execute exactly one event if any remain at or before @p horizon.
     * Returns true if an event ran.
     */
    bool step(Picoseconds horizon = INT64_MAX);

    /** Request run() to return after the current event completes. */
    void stop() { stop_requested_ = true; }

  private:
    static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;
    static constexpr std::uint32_t kRingSize = 1u << kRingBits;
    static constexpr std::uint32_t kRingMask = kRingSize - 1;

    /** Heap entry: ordering key plus the owning slot. */
    struct HeapEntry
    {
        Picoseconds when;
        std::uint64_t seq; ///< heap push order: FIFO among equal times
        std::uint32_t slot;

        bool
        before(const HeapEntry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    /** Callback storage; indexed by the low half of an EventId. */
    struct Slot
    {
        Callback cb;
        Picoseconds when = 0;
        std::uint32_t generation = 1; ///< bumped when the slot is freed
        std::uint32_t heap_pos = kNpos;  ///< position if heap-resident
        std::uint32_t ring_prev = kNpos; ///< bucket neighbours if
        std::uint32_t ring_next = kNpos; ///< ring-resident
        std::uint32_t next_free = kNpos;
        bool in_ring = false;
    };

    /** Intrusive list of one bucket's slots: by time, FIFO within one. */
    struct Bucket
    {
        std::uint32_t head = kNpos;
        std::uint32_t tail = kNpos;
    };

    static EventId
    makeId(std::uint32_t slot, std::uint32_t generation)
    {
        return (static_cast<EventId>(generation) << 32) | slot;
    }

    /** Index of the 64 ps tick holding @p t. */
    static std::uint64_t
    tickOf(Picoseconds t)
    {
        return static_cast<std::uint64_t>(t) >> kBucketBits;
    }

    /** Ring index of the bucket holding time @p t. */
    static std::uint32_t
    bucketOf(Picoseconds t)
    {
        return static_cast<std::uint32_t>(tickOf(t)) & kRingMask;
    }

    /** Decode an id; returns the slot index or kNpos for stale ids. */
    std::uint32_t decode(EventId id) const;

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);

    // ---- heap ----
    void siftUp(std::uint32_t pos);
    void siftDown(std::uint32_t pos);
    /** Remove the entry at @p pos; its slot's heap_pos becomes kNpos. */
    void removeAt(std::uint32_t pos);
    void placeHeap(std::uint32_t pos, HeapEntry entry);

    // ---- ring ----
    /** File a detached slot into the ring or the overflow heap. */
    void placeEvent(std::uint32_t slot);
    /** Insert a slot into its bucket behind every event at its time. */
    void ringInsert(std::uint32_t slot);
    /** Unlink a ring-resident slot from its bucket. */
    void ringUnlink(std::uint32_t slot);
    /** First occupied bucket at or circularly after now's bucket. */
    std::uint32_t nextBucket() const;
    /** Set now to @p t and move heap events the window reached. */
    void advanceTo(Picoseconds t);

    std::vector<HeapEntry> heap_;
    std::vector<Slot> slots_;
    std::array<Bucket, kRingSize> buckets_{};
    /** Bit i set iff bucket i is occupied. */
    std::array<std::uint64_t, kRingSize / 64> occupied_{};
    /** Bit w set iff occupied_[w] != 0. */
    std::uint64_t summary_ = 0;
    std::size_t ring_count_ = 0;
    std::uint32_t free_head_ = kNpos;
    Picoseconds now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    bool stop_requested_ = false;
};

} // namespace edm

#endif // EDM_SIM_EVENT_QUEUE_HPP
