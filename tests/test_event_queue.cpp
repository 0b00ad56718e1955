/**
 * @file
 * Deep tests for the event queue (a calendar ring of 64 ps buckets over
 * an indexed 4-ary overflow heap): FIFO tie-breaking, cancellation life
 * cycle, rescheduling, ring-specific behaviour (the ring's end, index
 * wrap-around, the circular scan's start, sorted buckets, heap-to-ring
 * migration, INT64_MAX), SBO callback semantics, a seeded differential
 * run against a std::set reference, and a 1M-event randomized stress
 * that checks the ordering invariants end to end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "sim/event_queue.hpp"

namespace edm {
namespace {

TEST(EventQueueOrder, SameTimestampFifoAcrossInterleavedTimes)
{
    EventQueue q;
    std::vector<int> order;
    // Interleave registrations across two timestamps; each timestamp
    // must preserve its own registration order.
    for (int i = 0; i < 8; ++i) {
        q.schedule(200, [&, i] { order.push_back(100 + i); });
        q.schedule(100, [&, i] { order.push_back(i); });
    }
    q.run();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
        EXPECT_EQ(order[static_cast<std::size_t>(8 + i)], 100 + i);
    }
}

TEST(EventQueueOrder, FifoSurvivesHeavyCancellation)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i)
        ids.push_back(q.schedule(50, [&, i] { order.push_back(i); }));
    // Cancel every odd registration; even ones must still fire in order.
    for (int i = 1; i < 100; i += 2)
        EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
    q.run();
    ASSERT_EQ(order.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], 2 * i);
}

TEST(EventQueueCancel, CancelAfterFireReturnsFalse)
{
    EventQueue q;
    bool ran = false;
    const EventId id = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(q.isPending(id));
    q.run();
    EXPECT_TRUE(ran);
    EXPECT_FALSE(q.isPending(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueCancel, DoubleCancelReturnsFalse)
{
    EventQueue q;
    const EventId id = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueueCancel, StaleIdAfterSlotReuseReturnsFalse)
{
    EventQueue q;
    const EventId first = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(first));
    // The freed slot is reused; the old handle must not cancel the
    // new occupant.
    bool ran = false;
    const EventId second = q.schedule(20, [&] { ran = true; });
    EXPECT_FALSE(q.cancel(first));
    EXPECT_TRUE(q.isPending(second));
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueueCancel, CancelFromWithinCallback)
{
    EventQueue q;
    bool victim_ran = false;
    const EventId victim = q.schedule(20, [&] { victim_ran = true; });
    q.schedule(10, [&] { EXPECT_TRUE(q.cancel(victim)); });
    q.run();
    EXPECT_FALSE(victim_ran);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueReschedule, MovesEventEarlierAndLater)
{
    EventQueue q;
    std::vector<int> order;
    const EventId a = q.schedule(300, [&] { order.push_back(1); });
    q.schedule(200, [&] { order.push_back(2); });
    const EventId c = q.schedule(100, [&] { order.push_back(3); });
    EXPECT_TRUE(q.reschedule(a, 50));  // move earlier
    EXPECT_TRUE(q.reschedule(c, 400)); // move later
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 400);
}

TEST(EventQueueReschedule, ResequencesBehindExistingTies)
{
    EventQueue q;
    std::vector<int> order;
    const EventId moved = q.schedule(10, [&] { order.push_back(0); });
    q.schedule(100, [&] { order.push_back(1); });
    q.schedule(100, [&] { order.push_back(2); });
    // After rescheduling onto an occupied timestamp the event fires
    // after the events already there.
    EXPECT_TRUE(q.reschedule(moved, 100));
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(EventQueueReschedule, FiredOrCancelledEventRejects)
{
    EventQueue q;
    const EventId fired = q.schedule(10, [] {});
    q.run();
    EXPECT_FALSE(q.reschedule(fired, 20));

    const EventId cancelled = q.schedule(30, [] {});
    EXPECT_TRUE(q.cancel(cancelled));
    EXPECT_FALSE(q.reschedule(cancelled, 40));
}

TEST(EventQueueReschedule, RescheduleWhilePendingKeepsSingleFire)
{
    EventQueue q;
    int fires = 0;
    EventId id = q.schedule(100, [&] { ++fires; });
    // A retry-timer pattern: push the deadline out several times.
    for (Picoseconds t = 200; t <= 1000; t += 200)
        EXPECT_TRUE(q.reschedule(id, t));
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fires, 1);
    EXPECT_EQ(q.now(), 1000);
}

TEST(EventQueueCallbackDeathTest, SchedulingEmptyCallbackPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.schedule(10, EventQueue::Callback{}),
                 "empty callback");
    // A null function pointer converts to the empty state and must be
    // rejected the same way, not crash when the event fires.
    void (*null_fp)() = nullptr;
    EXPECT_DEATH(q.schedule(10, null_fp), "empty callback");
}

TEST(EventQueueCallback, MoveOnlyCaptureIsSupported)
{
    EventQueue q;
    auto payload = std::make_unique<int>(99);
    int seen = 0;
    q.schedule(10, [p = std::move(payload), &seen] { seen = *p; });
    q.run();
    EXPECT_EQ(seen, 99);
}

TEST(EventQueueCallback, LargeCaptureFallsBackToHeap)
{
    EventQueue q;
    // 256 bytes of captured state: far beyond the inline buffer.
    std::vector<double> big(32, 1.5);
    double sum = 0;
    q.schedule(10, [big, &sum] {
        for (double v : big)
            sum += v;
    });
    q.run();
    EXPECT_DOUBLE_EQ(sum, 48.0);
}

TEST(EventQueueCounters, ExecutedAccumulatesAcrossRuns)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(i * 10, [] {});
    EXPECT_EQ(q.run(20), 3u);
    EXPECT_EQ(q.executed(), 3u);
    EXPECT_EQ(q.run(), 2u);
    EXPECT_EQ(q.executed(), 5u);
}

// ---------------------------------------------------------------------------
// Calendar-ring specifics. The ring files an event whose 64 ps bucket is
// fewer than 4,096 buckets past now's; anything later overflows to the
// heap and moves into the ring once the window reaches it. None of this
// is observable except through firing order, which these tests pin.
// ---------------------------------------------------------------------------

constexpr Picoseconds kBucket = Picoseconds{1} << EventQueue::kBucketBits;
constexpr Picoseconds kSpan = EventQueue::kRingSpan;

TEST(EventQueueRing, FiresAcrossRingBoundaries)
{
    // Delays inside one bucket, across buckets, at both sides of the
    // ring's end and deep into the heap, from an aligned and from an
    // unaligned now.
    for (const Picoseconds start : {Picoseconds{0}, Picoseconds{37}}) {
        EventQueue q;
        q.schedule(start, [] {});
        q.run();
        std::vector<Picoseconds> fired;
        const Picoseconds delays[] = {
            0,         1,         kBucket - 1, kBucket,     kBucket + 1,
            kSpan - kBucket,      kSpan - 1,   kSpan,       kSpan + 1,
            2 * kSpan, Picoseconds{1} << 30,   Picoseconds{1} << 40};
        for (Picoseconds d : delays)
            q.scheduleAfter(d, [&fired, &q] { fired.push_back(q.now()); });
        q.run();
        std::vector<Picoseconds> expected;
        for (Picoseconds d : delays)
            expected.push_back(start + d);
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(fired, expected) << "start " << start;
    }
}

TEST(EventQueueRing, WrapsAtExactlySpanMinusOneAndSpan)
{
    // From now's bucket at the last ring index, at in-bucket offsets 0,
    // 1 and 63: now + 1 may wrap to index 0, now + span - 1 is the ring's
    // far end (index 4094) at offset 0 and in the heap otherwise, and
    // now + span is in the heap. Each must fire in time order and FIFO
    // against a twin scheduled at the same time.
    for (const Picoseconds offset : {Picoseconds{0}, Picoseconds{1},
                                     kBucket - 1}) {
        EventQueue q;
        const Picoseconds now = (kSpan - kBucket) + offset;
        q.schedule(now, [] {});
        q.run();
        ASSERT_EQ(q.now(), now);
        std::vector<int> order;
        q.schedule(now + kSpan, [&] { order.push_back(4); });
        q.schedule(now + kSpan - 1, [&] { order.push_back(2); });
        q.schedule(now, [&] { order.push_back(0); });
        q.schedule(now + kSpan - 1, [&] { order.push_back(3); });
        q.schedule(now + 1, [&] { order.push_back(1); });
        q.schedule(now + kSpan, [&] { order.push_back(5); });
        q.run();
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}))
            << "offset " << offset;
        EXPECT_EQ(q.now(), now + kSpan);
    }
}

TEST(EventQueueRing, ScanStartsAtNowsBucket)
{
    // Every round fires a driver at T that schedules, latest first, one
    // event in the ring's last bucket, one 128 buckets ahead, one 2
    // ahead, one 1 ahead and one at T itself. A scan that starts N != 0
    // buckets off now's bucket reaches the last bucket (the one just
    // behind now's) before now's own, and a scan indexed by ps instead
    // of ticks starts in the wrong bucket at most phases. The rounds
    // step the start bucket by 67 (coprime with 4,096) and the in-bucket
    // offset by 1, so every ring index is a start.
    EventQueue q;
    std::vector<Picoseconds> fired;
    std::uint64_t bad_rounds = 0;
    int rounds = 0;
    std::function<void()> driver = [&] {
        const Picoseconds t = q.now();
        const Picoseconds last = t - t % kBucket + kSpan - 1;
        const Picoseconds expected[] = {t, t + kBucket, t + 2 * kBucket,
                                        t + 128 * kBucket, last};
        auto record = [&fired, &q] { fired.push_back(q.now()); };
        q.schedule(last, [&, t, last, expected] {
            fired.push_back(q.now());
            if (!std::equal(fired.begin(), fired.end(),
                            std::begin(expected), std::end(expected)) &&
                bad_rounds++ == 0)
                ADD_FAILURE() << "round " << rounds << " at t=" << t
                              << " fired out of order";
            fired.clear();
            // last + 1 starts a bucket 4,096 past t's: the next start
            // is 67 buckets on, at in-bucket offset rounds % 64.
            if (++rounds < 4096)
                q.schedule(last + 1 + 67 * kBucket + rounds % kBucket,
                           driver);
        });
        q.schedule(t + 128 * kBucket, record);
        q.schedule(t + 2 * kBucket, record);
        q.schedule(t + kBucket, record);
        q.schedule(t, record);
    };
    q.schedule(0, driver);
    q.run();
    EXPECT_EQ(rounds, 4096);
    EXPECT_EQ(bad_rounds, 0u);
}

TEST(EventQueueRing, OneBucketFiresSorted)
{
    // t, t + 63 and t + 1 share one 64 ps bucket; scheduled in that
    // order (plus a second event at each of the later two) they must
    // fire sorted by time and FIFO within a time.
    EventQueue q;
    std::vector<int> order;
    const Picoseconds t = 5 * kBucket;
    q.schedule(t, [&] { order.push_back(0); });
    q.schedule(t + kBucket - 1, [&] { order.push_back(3); });
    q.schedule(t + 1, [&] { order.push_back(1); });
    q.schedule(t + kBucket - 1, [&] { order.push_back(4); });
    q.schedule(t + 1, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueRing, WrapAroundReusesSlots)
{
    // March time far enough that every bucket index is reused, with
    // events scheduled relative to a moving now.
    EventQueue q;
    std::uint64_t fired = 0;
    Picoseconds expect = 0;
    bool ok = true;
    std::function<void()> tick = [&] {
        ok = ok && q.now() == expect;
        ++fired;
        if (fired < 20000) {
            // 97 ps is coprime with the bucket width, so events land at
            // every in-bucket offset; 20k steps run 7 ring revolutions.
            expect += 97;
            q.scheduleAfter(97, tick);
        }
    };
    q.scheduleAfter(0, tick);
    q.run();
    EXPECT_EQ(fired, 20000u);
    EXPECT_TRUE(ok);
}

TEST(EventQueueRing, FarFutureOverflowsToHeapAndStillFires)
{
    EventQueue q;
    std::vector<int> order;
    // Far beyond the ring span: heap-resident from the start.
    const Picoseconds far = (Picoseconds{1} << 33) + 12345;
    q.schedule(far, [&] { order.push_back(2); });
    q.schedule(100, [&] { order.push_back(0); });
    q.schedule(far - 1, [&] { order.push_back(1); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(q.now(), far);
}

TEST(EventQueueRing, HeapMigrationKeepsFifoAtOneTimestamp)
{
    const Picoseconds when = 10 * kSpan + 100;
    {
        // X and Z enter the heap, both migrate when the window reaches
        // them, and Y is then scheduled into the ring at the same time.
        EventQueue q;
        std::vector<int> order;
        q.schedule(when, [&] { order.push_back(0); }); // X, heap
        q.schedule(when - 2 * kSpan, [&] {
            q.schedule(when, [&] { order.push_back(1); }); // Z, heap
        });
        q.schedule(when - kSpan / 2, [&] {
            q.schedule(when - 1, [&] {
                q.schedule(when, [&] { order.push_back(2); }); // Y, ring
            });
        });
        q.run();
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    }
    {
        // The ring is empty: the first heap event fires straight from
        // the heap, its twin migrates, and a third event scheduled from
        // the first one's callback queues behind the migrant.
        EventQueue q;
        std::vector<int> order;
        q.schedule(when, [&] {
            order.push_back(0);
            q.schedule(when, [&] { order.push_back(2); });
        });
        q.schedule(when, [&] { order.push_back(1); });
        q.run();
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    }
    {
        // At the window's edge: X sits exactly one span ahead (heap).
        // One bucket later it is 4,095 buckets ahead and must migrate
        // before the driver files Y at the same time into the ring.
        EventQueue q;
        std::vector<int> order;
        q.schedule(kSpan, [&] { order.push_back(0); }); // X, heap
        q.schedule(kBucket, [&] {
            q.schedule(kSpan, [&] { order.push_back(1); }); // Y, ring
        });
        q.run();
        EXPECT_EQ(order, (std::vector<int>{0, 1}));
    }
}

TEST(EventQueueRing, CancelAndRescheduleAcrossRingHeapBoundary)
{
    EventQueue q;
    q.schedule(192 * kBucket, [] {}); // now at a bucket start
    q.run();
    const Picoseconds now = q.now();
    std::vector<int> order;
    // Starts in the ring, moves to the heap exactly at the span, back to
    // the last ring picosecond, and out to the heap again.
    const EventId a = q.schedule(now + 10, [&] { order.push_back(0); });
    ASSERT_TRUE(q.reschedule(a, now + kSpan));
    ASSERT_TRUE(q.reschedule(a, now + kSpan - 1));
    ASSERT_TRUE(q.reschedule(a, now + 3 * kSpan));
    // A ring event rescheduled onto the heap event's time fires after
    // it (re-sequenced), and one moved from the heap into the ring
    // fires at its new time.
    const EventId b = q.schedule(now + 5, [&] { order.push_back(1); });
    ASSERT_TRUE(q.reschedule(b, now + 3 * kSpan));
    const EventId c =
        q.schedule(now + 4 * kSpan, [&] { order.push_back(2); });
    ASSERT_TRUE(q.reschedule(c, now + kSpan - 1));
    // Cancel in both residencies, and after migration.
    const EventId ring = q.schedule(now + 1, [&] { order.push_back(9); });
    const EventId heap =
        q.schedule(now + 2 * kSpan, [&] { order.push_back(9); });
    const EventId migrant =
        q.schedule(now + 5 * kSpan, [&] { order.push_back(9); });
    EXPECT_TRUE(q.cancel(ring));
    EXPECT_TRUE(q.cancel(heap));
    EXPECT_EQ(q.pending(), 4u);
    q.schedule(now + 4 * kSpan + kSpan / 2, [&] {
        EXPECT_TRUE(q.isPending(migrant)); // in the ring by now
        EXPECT_TRUE(q.cancel(migrant));
        EXPECT_FALSE(q.cancel(migrant));
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
    EXPECT_EQ(q.now(), now + 4 * kSpan + kSpan / 2);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueRing, EventNearInt64MaxFires)
{
    // The window end must be computed without overflow (UBSan checks
    // this in the sanitizer build): an event one ps short of INT64_MAX,
    // and a same-time and an INT64_MAX follow-up scheduled from it.
    EventQueue q;
    std::vector<int> order;
    q.schedule(INT64_MAX - 1, [&] {
        order.push_back(0);
        q.schedule(INT64_MAX, [&] { order.push_back(2); });
        q.schedule(q.now(), [&] { order.push_back(1); });
    });
    q.schedule(7, [&] { order.push_back(-1); });
    EXPECT_EQ(q.run(), 4u);
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));
    EXPECT_EQ(q.now(), INT64_MAX);
}

/**
 * Seeded differential run against a reference model: a std::set keyed
 * by (when, seq). Sequences are assigned in the queue's own order
 * (schedule and reschedule each take the next one), so the set's
 * minimum is the event that must fire next. Delays follow the fabric's
 * mix: same time, one 2,560 ps PCS cycle, a cycle plus a hop, uniform
 * up to 2^18 ps, and occasionally 2^30 ps (heap). Callbacks schedule,
 * cancel and reschedule; the top level drains in horizon slices.
 */
TEST(EventQueueRing, MatchesReferenceModelUnderFabricDelayMix)
{
    constexpr std::uint64_t kFires = 200000;
    constexpr Picoseconds kCycle = 2560;
    EventQueue q;
    Rng rng(0xED17);
    std::set<std::tuple<Picoseconds, std::uint64_t, int>> ref;
    std::vector<EventId> ids;                // by tag
    std::vector<std::pair<Picoseconds, std::uint64_t>> key; // by tag
    std::vector<int> live;                   // pending tags
    std::vector<std::size_t> live_pos;       // by tag
    std::uint64_t seq = 0;
    std::uint64_t fired = 0;
    std::uint64_t mismatches = 0;

    auto delay = [&]() -> Picoseconds {
        const double r = rng.uniform();
        if (r < 0.15)
            return 0;
        if (r < 0.45)
            return kCycle;
        if (r < 0.70)
            return kCycle + static_cast<Picoseconds>(
                                rng.uniformInt(std::uint64_t{1} << 14));
        if (r < 0.99)
            return static_cast<Picoseconds>(
                rng.uniformInt(std::uint64_t{1} << 18));
        return Picoseconds{1} << 30;
    };
    auto dropLive = [&](int tag) {
        const std::size_t pos = live_pos[static_cast<std::size_t>(tag)];
        live[pos] = live.back();
        live_pos[static_cast<std::size_t>(live[pos])] = pos;
        live.pop_back();
    };
    std::function<void(int)> fire;
    auto scheduleOne = [&] {
        const int tag = static_cast<int>(ids.size());
        const Picoseconds when = q.now() + delay();
        ids.push_back(q.schedule(when, [&fire, tag] { fire(tag); }));
        key.emplace_back(when, seq);
        ref.emplace(when, seq++, tag);
        live_pos.push_back(live.size());
        live.push_back(tag);
    };
    auto pickLive = [&] {
        return live[rng.uniformInt(live.size())];
    };
    fire = [&](int tag) {
        const auto [when, s, want] = *ref.begin();
        if ((want != tag || when != q.now()) && mismatches++ == 0)
            ADD_FAILURE() << "fire " << fired << ": tag " << tag << " at "
                          << q.now() << ", reference " << want << " at "
                          << when;
        ref.erase(ref.begin());
        dropLive(tag);
        if (++fired >= kFires)
            return;
        scheduleOne();
        const double roll = rng.uniform();
        if (roll < 0.15 && !live.empty()) {
            const int victim = pickLive();
            const auto &k = key[static_cast<std::size_t>(victim)];
            EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(victim)]));
            ref.erase({k.first, k.second, victim});
            dropLive(victim);
            scheduleOne();
        } else if (roll < 0.30 && !live.empty()) {
            const int moved = pickLive();
            auto &k = key[static_cast<std::size_t>(moved)];
            const Picoseconds to = q.now() + delay();
            EXPECT_TRUE(
                q.reschedule(ids[static_cast<std::size_t>(moved)], to));
            ref.erase({k.first, k.second, moved});
            k = {to, seq};
            ref.emplace(to, seq++, moved);
        }
    };

    for (int i = 0; i < 256; ++i)
        scheduleOne();
    Picoseconds horizon = 0;
    while (!q.empty()) {
        horizon += Picoseconds{1} << 20;
        q.run(horizon);
        ASSERT_LE(q.now(), horizon);
        ASSERT_EQ(q.pending(), ref.size());
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GE(fired, kFires);
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(q.executed(), fired);
}

/**
 * 1M-event randomized stress. Mixes schedule / cancel / reschedule and
 * verifies the two heap invariants observable from outside:
 *  - fire times are monotonically non-decreasing,
 *  - exactly the never-cancelled events fire, each exactly once.
 */
TEST(EventQueueStress, MillionRandomEventsFireInOrder)
{
    constexpr int kEvents = 1'000'000;
    EventQueue q;
    Rng rng(2024);

    std::vector<EventId> live;
    live.reserve(kEvents);
    std::uint64_t expected_fires = 0;
    std::uint64_t fired = 0;

    for (int i = 0; i < kEvents; ++i) {
        const auto when = static_cast<Picoseconds>(
            rng.uniformInt(std::uint64_t{1} << 40));
        const EventId id = q.schedule(when, [&] { ++fired; });
        ++expected_fires;

        const double roll = rng.uniform();
        if (roll < 0.15 && !live.empty()) {
            // Cancel a random live event (may already have been
            // cancelled via an earlier duplicate pick — both paths are
            // legal and must keep counts consistent).
            const std::size_t pick = rng.uniformInt(live.size());
            if (q.cancel(live[pick]))
                --expected_fires;
            live[pick] = live.back();
            live.pop_back();
        } else if (roll < 0.25 && !live.empty()) {
            const std::size_t pick = rng.uniformInt(live.size());
            const auto to = static_cast<Picoseconds>(
                rng.uniformInt(std::uint64_t{1} << 40));
            q.reschedule(live[pick], to); // false for fired ids is fine
        } else {
            live.push_back(id);
        }
    }

    // Drain one event at a time: now() must never move backwards.
    Picoseconds prev_now = 0;
    while (q.step()) {
        ASSERT_GE(q.now(), prev_now);
        prev_now = q.now();
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(fired, expected_fires);
    EXPECT_EQ(q.executed(), expected_fires);
}

} // namespace
} // namespace edm
