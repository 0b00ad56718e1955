/**
 * @file
 * Unit tests for src/common: time, units, stats, RNG, CDF, object pool,
 * ring.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <utility>
#include <vector>

#include "common/cdf.hpp"
#include "common/object_pool.hpp"
#include "common/random.hpp"
#include "common/ring.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace edm {
namespace {

TEST(Time, Conversions)
{
    EXPECT_EQ(fromNs(1.0), 1000);
    EXPECT_EQ(fromNs(2.56), 2560);
    EXPECT_DOUBLE_EQ(toNs(2560), 2.56);
    EXPECT_DOUBLE_EQ(toUs(1000000), 1.0);
    EXPECT_EQ(kPcsBlockSlot, 2560);
}

TEST(Time, BlockSlotMatchesLineRate)
{
    // 25 Gb/s line rate, 64 payload bits per block: 390.625 MHz.
    EXPECT_NEAR(64.0 / 25e9 * 1e12, static_cast<double>(kPcsBlockSlot),
                1e-9);
}

TEST(Units, TransmissionDelayBasics)
{
    // 64 B at 25 Gbps = 20.48 ns.
    EXPECT_EQ(transmissionDelay(64, Gbps{25.0}), 20480);
    // 1 B at 100 Gbps = 0.08 ns -> rounds up to 80 ps.
    EXPECT_EQ(transmissionDelay(1, Gbps{100.0}), 80);
    EXPECT_EQ(transmissionDelay(0, Gbps{100.0}), 0);
}

TEST(Units, TransmissionDelayRoundsUp)
{
    // 3 B at 7 Gbps is not an integral number of picoseconds.
    const Picoseconds d = transmissionDelay(3, Gbps{7.0});
    EXPECT_GE(static_cast<double>(d), 3.0 * 8.0 / (7.0 / 1000.0));
    EXPECT_LT(static_cast<double>(d), 3.0 * 8.0 / (7.0 / 1000.0) + 1.0);
}

class TransmissionMonotonic : public ::testing::TestWithParam<int>
{
};

TEST_P(TransmissionMonotonic, MoreBytesNeverFaster)
{
    const Bytes b = static_cast<Bytes>(GetParam());
    EXPECT_LE(transmissionDelay(b, Gbps{100.0}),
              transmissionDelay(b + 1, Gbps{100.0}));
    EXPECT_LE(transmissionDelay(b, Gbps{25.0}),
              transmissionDelay(b, Gbps{10.0}));
}

INSTANTIATE_TEST_SUITE_P(Sweep, TransmissionMonotonic,
                         ::testing::Values(0, 1, 7, 8, 63, 64, 65, 255,
                                           1459, 1460, 8999, 65535));

TEST(RunningStat, Moments)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeMatchesSequential)
{
    RunningStat a, b, all;
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(0, 100);
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Samples, Percentiles)
{
    Samples s;
    for (int i = 1; i <= 100; ++i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(99), 99.01, 1e-9);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Samples, SingleValue)
{
    Samples s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 42.0);
}

TEST(Histogram, BinningAndPercentile)
{
    Histogram h(0.0, 100.0, 10);
    for (int i = 0; i < 100; ++i)
        h.add(i + 0.5);
    h.add(-5.0);
    h.add(1000.0);
    EXPECT_EQ(h.count(), 102u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.binCount(0), 10u);
    EXPECT_NEAR(h.percentile(50), 50.0, 2.0);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.uniformInt(std::uint64_t{10}), 10u);
        const auto v = rng.uniformInt(std::int64_t{-5}, std::int64_t{5});
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, ExponentialMean)
{
    Rng rng(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Rng, ZipfSkewAndRange)
{
    Rng rng(13);
    std::uint64_t head = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const auto k = rng.zipf(1000, 0.99);
        EXPECT_LT(k, 1000u);
        head += k < 10;
    }
    // With theta 0.99, the ten hottest keys draw a large share.
    EXPECT_GT(static_cast<double>(head) / n, 0.3);
}

TEST(Cdf, QuantileInterpolation)
{
    Cdf cdf{{10.0, 0.5}, {20.0, 1.0}};
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 10.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.75), 15.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 20.0);
    EXPECT_DOUBLE_EQ(cdf.maxValue(), 20.0);
}

TEST(Cdf, MeanMatchesSampling)
{
    Cdf cdf{{64.0, 0.4}, {1024.0, 0.8}, {65536.0, 1.0}};
    Rng rng(17);
    double sum = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i)
        sum += cdf.sample(rng);
    EXPECT_NEAR(sum / n, cdf.mean(), cdf.mean() * 0.02);
}

TEST(Cdf, SamplesWithinSupport)
{
    Cdf cdf{{64.0, 0.4}, {1024.0, 0.8}, {65536.0, 1.0}};
    Rng rng(19);
    for (int i = 0; i < 10000; ++i) {
        const double v = cdf.sample(rng);
        EXPECT_GE(v, 64.0);
        EXPECT_LE(v, 65536.0);
    }
}

// ---- edge cases ----

TEST(SamplesEdge, EmptyQuantilesAreZero)
{
    Samples s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(SamplesEdge, SingleSampleIsEveryQuantile)
{
    Samples s;
    s.add(7.25);
    for (double p : {0.0, 1.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(s.percentile(p), 7.25);
    EXPECT_DOUBLE_EQ(s.min(), 7.25);
    EXPECT_DOUBLE_EQ(s.max(), 7.25);
}

TEST(RunningStatEdge, EmptyAndMergeWithEmpty)
{
    RunningStat empty;
    EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
    EXPECT_DOUBLE_EQ(empty.variance(), 0.0);
    EXPECT_DOUBLE_EQ(empty.min(), 0.0);
    EXPECT_DOUBLE_EQ(empty.max(), 0.0);

    RunningStat some;
    some.add(2.0);
    some.add(4.0);
    some.merge(empty); // no-op
    EXPECT_EQ(some.count(), 2u);
    EXPECT_DOUBLE_EQ(some.mean(), 3.0);

    RunningStat target;
    target.merge(some); // adopt
    EXPECT_EQ(target.count(), 2u);
    EXPECT_DOUBLE_EQ(target.mean(), 3.0);
    EXPECT_DOUBLE_EQ(target.min(), 2.0);
    EXPECT_DOUBLE_EQ(target.max(), 4.0);
}

TEST(CdfEdge, SinglePointIsDegenerate)
{
    const Cdf cdf{{512.0, 1.0}};
    EXPECT_FALSE(cdf.empty());
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 512.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 512.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 512.0);
    EXPECT_DOUBLE_EQ(cdf.mean(), 512.0);
    EXPECT_DOUBLE_EQ(cdf.maxValue(), 512.0);
    Rng rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(cdf.sample(rng), 512.0);
}

TEST(UnitsEdge, TransmissionDelaySubPicosecondRoundsUp)
{
    // 300 Gbps = 0.3 bits/ps: one byte takes 26.66.. ps and must round
    // up to 27 so that back-to-back sends never overlap.
    EXPECT_EQ(transmissionDelay(1, Gbps{300.0}), 27);
    // Exact multiples must NOT round up: 64 Gbps = 0.064 bits/ps, and
    // 8 bytes = 64 bits take exactly 1000 ps.
    EXPECT_EQ(transmissionDelay(8, Gbps{64.0}), 1000);
    // Zero bytes cost zero time.
    EXPECT_EQ(transmissionDelay(0, Gbps{100.0}), 0);
    // 1 byte at 1 Tbps: 8 bits / 1 bit-per-ps = exactly 8 ps.
    EXPECT_EQ(transmissionDelay(1, Gbps{1000.0}), 8);
    // 1 byte at 2 Tbps: 4 ps exactly; at 3 Tbps: 2.66.. -> 3 ps.
    EXPECT_EQ(transmissionDelay(1, Gbps{2000.0}), 4);
    EXPECT_EQ(transmissionDelay(1, Gbps{3000.0}), 3);
}

TEST(UnitsEdge, TransmissionDelaySuperadditive)
{
    // Ceil rounding means splitting a transfer can only add time:
    // delay(a) + delay(b) >= delay(a + b).
    const Gbps rate{25.0};
    Rng rng(77);
    for (int i = 0; i < 1000; ++i) {
        const Bytes a = rng.uniformInt(std::uint64_t{4096}) + 1;
        const Bytes b = rng.uniformInt(std::uint64_t{4096}) + 1;
        EXPECT_GE(transmissionDelay(a, rate) + transmissionDelay(b, rate),
                  transmissionDelay(a + b, rate));
    }
}

TEST(ObjectPool, RecyclesStorageWithoutGrowth)
{
    struct Node
    {
        int value;
    };
    common::ObjectPool<Node, 8> pool;
    EXPECT_EQ(pool.capacity(), 0u);

    Node *a = pool.acquire(Node{1});
    Node *b = pool.acquire(Node{2});
    EXPECT_EQ(pool.live(), 2u);
    EXPECT_EQ(pool.capacity(), 8u);
    EXPECT_EQ(a->value, 1);
    EXPECT_EQ(b->value, 2);

    pool.release(b);
    // LIFO free list: the next acquire reuses b's slot.
    Node *c = pool.acquire(Node{3});
    EXPECT_EQ(c, b);
    EXPECT_EQ(pool.capacity(), 8u);
    pool.release(a);
    pool.release(c);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(ObjectPool, GrowsByWholeSlabs)
{
    struct Node
    {
        std::uint64_t v;
    };
    common::ObjectPool<Node, 4> pool;
    std::vector<Node *> nodes;
    for (std::uint64_t i = 0; i < 10; ++i)
        nodes.push_back(pool.acquire(Node{i}));
    EXPECT_EQ(pool.capacity(), 12u); // three 4-object slabs
    EXPECT_EQ(pool.live(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(nodes[i]->v, i);
    for (Node *n : nodes)
        pool.release(n);
    // Churn at the high-water mark never grows the pool again.
    for (int round = 0; round < 50; ++round) {
        std::vector<Node *> batch;
        for (std::uint64_t i = 0; i < 10; ++i)
            batch.push_back(pool.acquire(Node{i}));
        for (Node *n : batch)
            pool.release(n);
    }
    EXPECT_EQ(pool.capacity(), 12u);
}

/** The ring's contents, head first. */
std::vector<int>
contents(const common::Ring<int> &r)
{
    std::vector<int> out;
    for (std::size_t i = 0; i < r.size(); ++i)
        out.push_back(r[i]);
    return out;
}

TEST(Ring, AllocatesOnFirstPush)
{
    common::Ring<int> r;
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.capacity(), 0u);
    r.push_back(1);
    EXPECT_EQ(r.capacity(), common::Ring<int>::kMinCapacity);
}

TEST(Ring, PushPopAcrossTheWrapPoint)
{
    common::Ring<int> r;
    for (int i = 0; i < 6; ++i)
        r.push_back(i);
    r.pop_front(5);
    // Head at slot 5 of 8: the next pushes wrap past the buffer end.
    for (int i = 6; i < 13; ++i)
        r.push_back(i);
    EXPECT_EQ(r.capacity(), 8u);
    EXPECT_EQ(contents(r), (std::vector<int>{5, 6, 7, 8, 9, 10, 11, 12}));
    EXPECT_EQ(r.front(), 5);
    EXPECT_EQ(r.back(), 12);
    r.pop_front(3);
    EXPECT_EQ(r.front(), 8);
    r.pop_front();
    EXPECT_EQ(contents(r), (std::vector<int>{9, 10, 11, 12}));
    r.pop_front(4);
    EXPECT_TRUE(r.empty());
}

TEST(Ring, GrowsWhileTheHeadIsWrapped)
{
    common::Ring<int> r;
    for (int i = 0; i < 8; ++i)
        r.push_back(i);
    r.pop_front(6);
    for (int i = 8; i < 14; ++i)
        r.push_back(i); // head at slot 6, contents wrap to slot 5
    EXPECT_EQ(r.size(), 8u);
    EXPECT_EQ(r.capacity(), 8u);
    r.push_back(14); // full and wrapped: growth must unwrap in order
    EXPECT_EQ(r.capacity(), 16u);
    EXPECT_EQ(contents(r),
              (std::vector<int>{6, 7, 8, 9, 10, 11, 12, 13, 14}));
}

TEST(Ring, InsertShiftsTheShorterSide)
{
    common::Ring<int> r;
    for (int i = 0; i < 6; ++i)
        r.push_back(i * 10);
    r.insert(1, 5); // front half: the head moves back one slot
    EXPECT_EQ(contents(r), (std::vector<int>{0, 5, 10, 20, 30, 40, 50}));
    r.insert(6, 45); // back half: the tail moves forward one slot
    EXPECT_EQ(contents(r),
              (std::vector<int>{0, 5, 10, 20, 30, 40, 45, 50}));
    r.insert(8, 60); // at size(): an append, growing the full ring
    r.insert(0, -10); // at 0: a push_front
    EXPECT_EQ(contents(r), (std::vector<int>{-10, 0, 5, 10, 20, 30, 40,
                                             45, 50, 60}));
}

TEST(Ring, PushFrontAcrossIndexZero)
{
    common::Ring<int> r;
    r.push_back(2);
    r.push_front(1); // head wraps from slot 0 to the last slot
    r.push_front(0);
    EXPECT_EQ(contents(r), (std::vector<int>{0, 1, 2}));
    r.pop_front();
    r.push_back(3);
    EXPECT_EQ(contents(r), (std::vector<int>{1, 2, 3}));
}

TEST(Ring, MovedFromRingIsEmptyAndReusable)
{
    common::Ring<int> a;
    for (int i = 0; i < 5; ++i)
        a.push_back(i);
    common::Ring<int> b(std::move(a));
    EXPECT_EQ(contents(b), (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(a.empty()); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a.capacity(), 0u);
    a.push_back(7);
    a.push_front(6);
    EXPECT_EQ(contents(a), (std::vector<int>{6, 7}));

    common::Ring<int> c;
    c.push_back(99);
    c = std::move(b);
    EXPECT_EQ(contents(c), (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(b.empty()); // NOLINT(bugprone-use-after-move)
    b.insert(0, 1);
    EXPECT_EQ(contents(b), (std::vector<int>{1}));
}

TEST(Ring, RandomizedAgainstDeque)
{
    Rng rng(2024);
    common::Ring<int> r;
    std::deque<int> ref;
    for (int step = 0; step < 20000; ++step) {
        const int v = step;
        // Six pushes to one pop of a random length: sizes wander over
        // several capacities, so growth meets every head position.
        switch (rng.uniformInt(std::uint64_t{7})) {
          case 0:
          case 1:
            r.push_back(v);
            ref.push_back(v);
            break;
          case 2:
          case 3:
            r.push_front(v);
            ref.push_front(v);
            break;
          case 4:
          case 5: {
            const std::size_t i = rng.uniformInt(ref.size() + 1);
            r.insert(i, v);
            ref.insert(ref.begin() + static_cast<std::ptrdiff_t>(i), v);
            break;
          }
          default: {
            const std::size_t n = rng.uniformInt(ref.size() + 1);
            r.pop_front(n);
            ref.erase(ref.begin(),
                      ref.begin() + static_cast<std::ptrdiff_t>(n));
            break;
          }
        }
        ASSERT_EQ(r.size(), ref.size());
        if (!ref.empty()) {
            ASSERT_EQ(r.front(), ref.front());
            ASSERT_EQ(r.back(), ref.back());
        }
    }
    EXPECT_EQ(contents(r), std::vector<int>(ref.begin(), ref.end()));
}

} // namespace
} // namespace edm
