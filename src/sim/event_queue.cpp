#include "event_queue.hpp"

#include <bit>
#include <utility>

#include "common/logging.hpp"

namespace edm {

// ---------------------------------------------------------------------------
// Slot table
// ---------------------------------------------------------------------------

std::uint32_t
EventQueue::allocSlot()
{
    if (free_head_ != kNpos) {
        const std::uint32_t slot = free_head_;
        free_head_ = slots_[slot].next_free;
        slots_[slot].next_free = kNpos;
        return slot;
    }
    EDM_ASSERT(slots_.size() < kNpos, "event slot table overflow");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.cb.reset();
    // Bumping the generation invalidates every outstanding EventId for
    // this slot; wrap-around after 2^32 reuses is accepted.
    ++s.generation;
    s.next_free = free_head_;
    free_head_ = slot;
}

std::uint32_t
EventQueue::decode(EventId id) const
{
    const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size() || slots_[slot].generation != generation ||
        (slots_[slot].heap_pos == kNpos && !slots_[slot].in_ring))
        return kNpos;
    return slot;
}

// ---------------------------------------------------------------------------
// 4-ary overflow heap
// ---------------------------------------------------------------------------

void
EventQueue::placeHeap(std::uint32_t pos, HeapEntry entry)
{
    slots_[entry.slot].heap_pos = pos;
    heap_[pos] = entry;
}

void
EventQueue::siftUp(std::uint32_t pos)
{
    HeapEntry entry = heap_[pos];
    while (pos > 0) {
        const std::uint32_t parent = (pos - 1) / 4;
        if (!entry.before(heap_[parent]))
            break;
        placeHeap(pos, heap_[parent]);
        pos = parent;
    }
    placeHeap(pos, entry);
}

void
EventQueue::siftDown(std::uint32_t pos)
{
    const auto size = static_cast<std::uint32_t>(heap_.size());
    HeapEntry entry = heap_[pos];
    for (;;) {
        const std::uint64_t first = std::uint64_t{pos} * 4 + 1;
        if (first >= size)
            break;
        std::uint32_t best = static_cast<std::uint32_t>(first);
        const std::uint32_t last =
            static_cast<std::uint32_t>(
                first + 4 < size ? first + 4 : size);
        for (std::uint32_t c = best + 1; c < last; ++c)
            if (heap_[c].before(heap_[best]))
                best = c;
        if (!heap_[best].before(entry))
            break;
        placeHeap(pos, heap_[best]);
        pos = best;
    }
    placeHeap(pos, entry);
}

void
EventQueue::removeAt(std::uint32_t pos)
{
    slots_[heap_[pos].slot].heap_pos = kNpos;
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
        placeHeap(pos, last);
        siftDown(pos);
        siftUp(slots_[last.slot].heap_pos);
    }
}

// ---------------------------------------------------------------------------
// Calendar ring
// ---------------------------------------------------------------------------

void
EventQueue::ringInsert(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    const std::uint32_t index = bucketOf(s.when);
    Bucket &b = buckets_[index];
    // Walk back from the tail past every later timestamp; equal ones stay
    // ahead, so a time's events keep placement order. That is schedule
    // order: a scheduled or rescheduled event is the newest at its time,
    // and heap migrants arrive in heap order into buckets that only
    // earlier migrants occupy (the window's new end).
    std::uint32_t after = b.tail;
    while (after != kNpos && slots_[after].when > s.when)
        after = slots_[after].ring_prev;
    s.ring_prev = after;
    s.ring_next = after != kNpos ? slots_[after].ring_next : b.head;
    if (s.ring_next != kNpos)
        slots_[s.ring_next].ring_prev = slot;
    else
        b.tail = slot;
    if (after != kNpos) {
        slots_[after].ring_next = slot;
    } else {
        b.head = slot;
        occupied_[index >> 6] |= std::uint64_t{1} << (index & 63);
        summary_ |= std::uint64_t{1} << (index >> 6);
    }
    s.in_ring = true;
    ++ring_count_;
}

void
EventQueue::ringUnlink(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    const std::uint32_t index = bucketOf(s.when);
    Bucket &b = buckets_[index];
    if (s.ring_prev != kNpos)
        slots_[s.ring_prev].ring_next = s.ring_next;
    else
        b.head = s.ring_next;
    if (s.ring_next != kNpos)
        slots_[s.ring_next].ring_prev = s.ring_prev;
    else
        b.tail = s.ring_prev;
    if (b.head == kNpos) {
        std::uint64_t &word = occupied_[index >> 6];
        word &= ~(std::uint64_t{1} << (index & 63));
        if (word == 0)
            summary_ &= ~(std::uint64_t{1} << (index >> 6));
    }
    s.in_ring = false;
    --ring_count_;
}

void
EventQueue::placeEvent(std::uint32_t slot)
{
    // when >= now_, so the tick distance cannot underflow; comparing
    // ticks rather than ps keeps the window end from overflowing.
    if (tickOf(slots_[slot].when) - tickOf(now_) < kRingSize) {
        ringInsert(slot);
        return;
    }
    heap_.push_back(HeapEntry{slots_[slot].when, next_seq_++, slot});
    siftUp(static_cast<std::uint32_t>(heap_.size() - 1));
}

std::uint32_t
EventQueue::nextBucket() const
{
    EDM_ASSERT(ring_count_ > 0, "scanning an empty ring");
    // Ticks run circularly from now's bucket: first its own word above
    // it, then the later words, then (wrapped) the words up to and
    // including its own, whose remaining bits lie below the start.
    const std::uint32_t start = bucketOf(now_);
    const std::uint32_t word = start >> 6;
    const std::uint64_t here =
        occupied_[word] & (~std::uint64_t{0} << (start & 63));
    if (here)
        return (word << 6) + static_cast<std::uint32_t>(std::countr_zero(here));
    std::uint64_t words = summary_ & (~std::uint64_t{1} << word);
    if (words == 0)
        words = summary_;
    const auto w = static_cast<std::uint32_t>(std::countr_zero(words));
    return (w << 6) +
        static_cast<std::uint32_t>(std::countr_zero(occupied_[w]));
}

void
EventQueue::advanceTo(Picoseconds t)
{
    const std::uint64_t old_tick = tickOf(now_);
    now_ = t;
    if (tickOf(t) == old_tick)
        return;
    // The window's end moved with now: file every heap event it now
    // covers. Their buckets held only already-fired ticks, so they are
    // empty, and the heap yields the migrants in (when, seq) order.
    while (!heap_.empty() && tickOf(heap_[0].when) - tickOf(t) < kRingSize) {
        const std::uint32_t slot = heap_[0].slot;
        removeAt(0);
        ringInsert(slot);
    }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

EventId
EventQueue::schedule(Picoseconds when, Callback cb)
{
    EDM_ASSERT(when >= now_,
               "scheduling event in the past: %lld < now %lld",
               static_cast<long long>(when), static_cast<long long>(now_));
    EDM_ASSERT(static_cast<bool>(cb), "scheduling an empty callback");
    const std::uint32_t slot = allocSlot();
    Slot &s = slots_[slot];
    s.cb = std::move(cb);
    s.when = when;
    placeEvent(slot);
    return makeId(slot, s.generation);
}

EventId
EventQueue::scheduleAfter(Picoseconds delay, Callback cb)
{
    EDM_ASSERT(delay >= 0, "negative delay %lld",
               static_cast<long long>(delay));
    return schedule(now_ + delay, std::move(cb));
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t slot = decode(id);
    if (slot == kNpos)
        return false;
    if (slots_[slot].in_ring)
        ringUnlink(slot);
    else
        removeAt(slots_[slot].heap_pos);
    freeSlot(slot);
    return true;
}

bool
EventQueue::reschedule(EventId id, Picoseconds when)
{
    const std::uint32_t slot = decode(id);
    if (slot == kNpos)
        return false;
    EDM_ASSERT(when >= now_,
               "rescheduling event into the past: %lld < now %lld",
               static_cast<long long>(when), static_cast<long long>(now_));
    Slot &s = slots_[slot];
    // Detach wherever the event lives, re-sequence, re-file. The slot —
    // and therefore the caller's EventId — survives the migration.
    if (s.in_ring)
        ringUnlink(slot);
    else
        removeAt(s.heap_pos);
    s.when = when;
    placeEvent(slot);
    return true;
}

bool
EventQueue::isPending(EventId id) const
{
    return decode(id) != kNpos;
}

bool
EventQueue::step(Picoseconds horizon)
{
    std::uint32_t slot;
    if (ring_count_ > 0) {
        // Every heap event lies beyond the ring's end, so the head of the
        // first occupied bucket is the global minimum.
        slot = buckets_[nextBucket()].head;
        if (slots_[slot].when > horizon)
            return false;
        ringUnlink(slot);
    } else {
        if (heap_.empty() || heap_[0].when > horizon)
            return false;
        slot = heap_[0].slot;
        removeAt(0);
    }
    advanceTo(slots_[slot].when);

    // Detach the callback and retire the entry before invoking: the
    // callback may schedule, cancel, or reschedule other events freely.
    Callback cb = std::move(slots_[slot].cb);
    freeSlot(slot);
    ++executed_;
    cb();
    return true;
}

std::uint64_t
EventQueue::run(Picoseconds horizon)
{
    stop_requested_ = false;
    std::uint64_t ran = 0;
    while (!stop_requested_ && step(horizon))
        ++ran;
    return ran;
}

} // namespace edm
