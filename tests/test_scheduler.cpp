/**
 * @file
 * Unit and property tests for EDM's central priority-PIM scheduler.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/scheduler.hpp"
#include "sim/simulation.hpp"

namespace edm {
namespace core {
namespace {

struct GrantLog
{
    std::vector<std::pair<Picoseconds, GrantAction>> grants;

    Scheduler::GrantSink
    sink(Simulation &sim)
    {
        return [this, &sim](const GrantAction &a) {
            grants.emplace_back(sim.now(), a);
        };
    }
};

EdmConfig
makeConfig(std::size_t nodes, Bytes chunk = 256,
           Priority prio = Priority::Srpt)
{
    EdmConfig cfg;
    cfg.num_nodes = nodes;
    cfg.link_rate = Gbps{100.0};
    cfg.chunk_bytes = chunk;
    cfg.priority = prio;
    return cfg;
}

ControlInfo
notify(NodeId src, NodeId dst, MsgId id, Bytes size)
{
    ControlInfo n;
    n.src = src;
    n.dst = dst;
    n.id = id;
    n.size = size;
    return n;
}

TEST(Scheduler, WriteDemandProducesGrant)
{
    Simulation sim;
    GrantLog log;
    Scheduler sched(makeConfig(4), sim.events(), log.sink(sim));
    EXPECT_TRUE(sched.addWriteDemand(notify(0, 1, 7, 64)));
    sim.run();
    ASSERT_EQ(log.grants.size(), 1u);
    const auto &a = log.grants[0].second;
    EXPECT_EQ(a.target, 0);
    EXPECT_EQ(a.chunk, 64u);
    ASSERT_TRUE(a.grant_block.has_value());
    EXPECT_EQ(a.grant_block->id, 7);
    EXPECT_EQ(sched.grantsIssued(), 1u);
}

TEST(Scheduler, ReadDemandForwardsBufferedRequest)
{
    Simulation sim;
    GrantLog log;
    Scheduler sched(makeConfig(4), sim.events(), log.sink(sim));
    MemMessage req;
    req.type = MemMsgType::RREQ;
    req.src = 2; // requester
    req.dst = 3; // memory node
    req.id = 9;
    req.len = 64;
    EXPECT_TRUE(sched.addReadDemand(req, 64));
    sim.run();
    ASSERT_EQ(log.grants.size(), 1u);
    const auto &a = log.grants[0].second;
    // First grant = the buffered request, delivered to the memory node.
    EXPECT_EQ(a.target, 3);
    ASSERT_TRUE(a.forward_request.has_value());
    EXPECT_EQ(a.forward_request->id, 9);
    EXPECT_FALSE(a.grant_block.has_value());
}

TEST(Scheduler, LargeMessageIsChunked)
{
    Simulation sim;
    GrantLog log;
    Scheduler sched(makeConfig(4, 256), sim.events(), log.sink(sim));
    sched.addWriteDemand(notify(0, 1, 1, 1000));
    sim.run();
    // 1000 B at 256 B chunks: 256 + 256 + 256 + 232.
    ASSERT_EQ(log.grants.size(), 4u);
    Bytes total = 0;
    for (const auto &[t, a] : log.grants) {
        EXPECT_LE(a.chunk, 256u);
        total += a.chunk;
    }
    EXPECT_EQ(total, 1000u);
}

TEST(Scheduler, ChunksSpacedByLinkOccupancy)
{
    Simulation sim;
    GrantLog log;
    Scheduler sched(makeConfig(4, 256), sim.events(), log.sink(sim));
    sched.addWriteDemand(notify(0, 1, 1, 512));
    sim.run();
    ASSERT_EQ(log.grants.size(), 2u);
    // §3.1.1 step 7: the next grant issues l/B after the previous one.
    const Picoseconds gap = log.grants[1].first - log.grants[0].first;
    EXPECT_GE(gap, transmissionDelay(256, Gbps{100.0}));
}

TEST(Scheduler, BusyPortsExcludeConflictingDemands)
{
    Simulation sim;
    GrantLog log;
    Scheduler sched(makeConfig(4, 256), sim.events(), log.sink(sim));
    // Two senders to the same destination: must serialize.
    sched.addWriteDemand(notify(0, 2, 1, 256));
    sched.addWriteDemand(notify(1, 2, 1, 256));
    sim.run();
    ASSERT_EQ(log.grants.size(), 2u);
    const Picoseconds gap = log.grants[1].first - log.grants[0].first;
    EXPECT_GE(gap, transmissionDelay(256, Gbps{100.0}));
}

TEST(Scheduler, DisjointPairsGrantInParallel)
{
    Simulation sim;
    GrantLog log;
    Scheduler sched(makeConfig(6, 256), sim.events(), log.sink(sim));
    // Three port-disjoint pairs, posted out of src order; their
    // destinations run opposite to their sources.
    sched.addWriteDemand(notify(2, 3, 1, 256));
    sched.addWriteDemand(notify(4, 1, 1, 256));
    sched.addWriteDemand(notify(0, 5, 1, 256));
    sim.run();
    ASSERT_EQ(log.grants.size(), 3u);
    // Disjoint port pairs form one matching: same grant instant.
    EXPECT_EQ(log.grants[0].first, log.grants[1].first);
    EXPECT_EQ(log.grants[1].first, log.grants[2].first);
    // One iteration's winners are granted in ascending src order,
    // whatever the post order or the destinations' order.
    EXPECT_EQ(log.grants[0].second.target, 0);
    EXPECT_EQ(log.grants[1].second.target, 2);
    EXPECT_EQ(log.grants[2].second.target, 4);
}

TEST(Scheduler, SrptPrefersShorterMessage)
{
    Simulation sim;
    GrantLog log;
    EdmConfig cfg = makeConfig(4, 64, Priority::Srpt);
    Scheduler sched(cfg, sim.events(), log.sink(sim));
    // Same destination; the short message must win the first grant.
    sched.addWriteDemand(notify(0, 2, 1, 4096));
    sched.addWriteDemand(notify(1, 2, 1, 64));
    sim.run();
    ASSERT_GE(log.grants.size(), 2u);
    EXPECT_EQ(log.grants[0].second.target, 1); // short first
}

TEST(Scheduler, FcfsPrefersEarlierNotification)
{
    Simulation sim;
    GrantLog log;
    EdmConfig cfg = makeConfig(4, 64, Priority::Fcfs);
    Scheduler sched(cfg, sim.events(), log.sink(sim));
    sched.addWriteDemand(notify(0, 2, 1, 4096)); // earlier, longer
    sim.events().scheduleAfter(1000, [&] {
        sched.addWriteDemand(notify(1, 2, 1, 64));
    });
    sim.run();
    ASSERT_GE(log.grants.size(), 2u);
    EXPECT_EQ(log.grants[0].second.target, 0); // earlier first
}

TEST(Scheduler, InOrderWithinPairDespiteSrpt)
{
    // §3.1.1 property 5: SRPT applies only across pairs; messages of one
    // pair are served in notification order.
    Simulation sim;
    GrantLog log;
    Scheduler sched(makeConfig(4, 4096, Priority::Srpt), sim.events(),
                    log.sink(sim));
    sched.addWriteDemand(notify(0, 1, 1, 4096)); // long, first
    sched.addWriteDemand(notify(0, 1, 2, 64));   // short, second
    sim.run();
    ASSERT_EQ(log.grants.size(), 2u);
    EXPECT_EQ(log.grants[0].second.grant_block->id, 1);
    EXPECT_EQ(log.grants[1].second.grant_block->id, 2);
}

TEST(Scheduler, QueueBoundRespectsXTimesN)
{
    EdmConfig cfg = makeConfig(2);
    cfg.max_notifications = 1;
    Simulation sim;
    GrantLog log;
    Scheduler sched(cfg, sim.events(), log.sink(sim));
    // Capacity per destination queue is X*N = 2.
    EXPECT_TRUE(sched.addWriteDemand(notify(0, 1, 1, 1 << 15)));
    EXPECT_TRUE(sched.addWriteDemand(notify(0, 1, 2, 1 << 15)));
    EXPECT_FALSE(sched.addWriteDemand(notify(0, 1, 3, 1 << 15)));
}

class SchedulerMatchingProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SchedulerMatchingProperty, GrantsNeverOverlapPorts)
{
    // Property: at any instant, at most one in-flight chunk uses a given
    // source or destination port — the matching invariant behind EDM's
    // zero-queuing claim (§3.1.1 property 1).
    Simulation sim(static_cast<std::uint64_t>(GetParam()));
    const std::size_t n = 8;
    const EdmConfig cfg = makeConfig(n, 256);
    GrantLog log;
    Scheduler sched(cfg, sim.events(), log.sink(sim));

    Rng &rng = sim.rng();
    std::map<std::pair<NodeId, NodeId>, MsgId> ids;
    for (int i = 0; i < 60; ++i) {
        const auto src = static_cast<NodeId>(rng.uniformInt(
            std::uint64_t{n}));
        auto dst = static_cast<NodeId>(rng.uniformInt(
            std::uint64_t{n - 1}));
        if (dst >= src)
            ++dst;
        const auto size = static_cast<Bytes>(
            64 + rng.uniformInt(std::uint64_t{2048}));
        const Picoseconds when = static_cast<Picoseconds>(
            rng.uniformInt(std::uint64_t{50000}));
        const MsgId id = ids[{src, dst}]++;
        sim.events().schedule(when, [&sched, src, dst, id, size] {
            ControlInfo ci;
            ci.src = src;
            ci.dst = dst;
            ci.id = id;
            ci.size = size;
            sched.addWriteDemand(ci);
        });
    }
    sim.run();

    // Replay grant log: intervals [t, t + chunk/B) must not overlap on
    // either port.
    std::map<NodeId, Picoseconds> src_busy_until;
    std::map<NodeId, Picoseconds> dst_busy_until;
    Bytes total = 0;
    for (const auto &[t, a] : log.grants) {
        const auto &g = *a.grant_block;
        const Picoseconds occ = transmissionDelay(a.chunk,
                                                  Gbps{100.0});
        EXPECT_GE(t, src_busy_until[g.src]) << "src port overlap";
        EXPECT_GE(t, dst_busy_until[g.dst]) << "dst port overlap";
        src_busy_until[g.src] = t + occ;
        dst_busy_until[g.dst] = t + occ;
        total += a.chunk;
    }
    EXPECT_GT(total, 0u);
    EXPECT_EQ(sched.pendingDemands(), 0u); // everything drained
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerMatchingProperty,
                         ::testing::Range(1, 11));

TEST(Scheduler, AverageIterationsReasonable)
{
    // ~log2(N) iterations per maximal matching on average (§3.1.3).
    Simulation sim(5);
    GrantLog log;
    const std::size_t n = 16;
    Scheduler sched(makeConfig(n, 64), sim.events(), log.sink(sim));
    for (NodeId s = 0; s < 8; ++s) {
        for (NodeId d = 8; d < 16; ++d) {
            ControlInfo ci;
            ci.src = s;
            ci.dst = d;
            ci.id = static_cast<MsgId>(d);
            ci.size = 64;
            sched.addWriteDemand(ci);
        }
    }
    sim.run();
    EXPECT_EQ(log.grants.size(), 64u);
    EXPECT_GE(sched.avgIterations(), 1.0);
    EXPECT_LE(sched.avgIterations(), 9.0);
}

} // namespace
} // namespace core
} // namespace edm
