/**
 * @file
 * Integration tests: the full cycle-level EDM fabric (hosts + switch +
 * scheduler + PHY blocks), matching the paper's testbed behaviours.
 */

#include <gtest/gtest.h>

#include "analytic/latency_model.hpp"
#include "core/fabric.hpp"
#include "mac/frame.hpp"

namespace edm {
namespace core {
namespace {

EdmConfig
testbedConfig(std::size_t nodes = 2)
{
    EdmConfig cfg;
    cfg.num_nodes = nodes;
    cfg.link_rate = Gbps{25.0}; // the paper's 25 GbE prototype
    return cfg;
}

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed = 1)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 13);
    return v;
}

TEST(Fabric, ReadReturnsStoredData)
{
    Simulation sim;
    CycleFabric fab(testbedConfig(), sim, {1});
    const auto data = pattern(64);
    fab.host(1).store()->write(0x1000, data);

    std::vector<std::uint8_t> got;
    fab.read(0, 1, 0x1000, 64,
             [&](std::vector<std::uint8_t> d, Picoseconds, bool to) {
                 EXPECT_FALSE(to);
                 got = std::move(d);
             });
    sim.run();
    EXPECT_EQ(got, data);
}

TEST(Fabric, WriteLandsInRemoteMemory)
{
    Simulation sim;
    CycleFabric fab(testbedConfig(), sim, {1});
    const auto data = pattern(100, 7);
    bool done = false;
    fab.write(0, 1, 0x2000, data, [&](Picoseconds) { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(fab.host(1).store()->read(0x2000, 100), data);
}

TEST(Fabric, UnloadedReadLatencyMatchesTable1)
{
    // Measured completion = Table-1 fabric latency + serialization of
    // the RREQ tail + RRES stream + DRAM service.
    Simulation sim;
    EdmConfig cfg = testbedConfig();
    CycleFabric fab(cfg, sim, {1});
    Picoseconds measured = 0;
    fab.read(0, 1, 0x1000, 64,
             [&](std::vector<std::uint8_t>, Picoseconds lat, bool) {
                 measured = lat;
             });
    sim.run();

    const auto table = analytic::fabricLatency(analytic::Stack::Edm, true,
                                               cfg.costs);
    EXPECT_NEAR(toNs(table.total), 299.52, 0.01); // the Table-1 value

    // Serialization: RREQ is 3 blocks (2 extra slots) + per-traversal
    // block slot ×4; RRES 64 B is 10 blocks (9 extra slots).
    const Picoseconds serialization = (4 + 2 + 9) * cfg.cycle;
    const Picoseconds dram = fab.host(1).lastDramLatency();
    EXPECT_GT(dram, 0);
    // Allow a few block slots of pump/slot-alignment slack.
    EXPECT_NEAR(toNs(measured), toNs(table.total + serialization + dram),
                3.0 * toNs(cfg.cycle));
}

TEST(Fabric, UnloadedWriteLatencyMatchesTable1)
{
    Simulation sim;
    EdmConfig cfg = testbedConfig();
    CycleFabric fab(cfg, sim, {1});
    Picoseconds measured = 0;
    fab.write(0, 1, 0x1000, pattern(64), [&](Picoseconds lat) {
        measured = lat;
    });
    sim.run();

    const auto table = analytic::fabricLatency(analytic::Stack::Edm,
                                               false, cfg.costs);
    EXPECT_NEAR(toNs(table.total), 296.96, 0.01);
    // /N/ and /G/ are single blocks; WREQ 64 B is 11 blocks.
    const Picoseconds serialization = (4 + 10) * cfg.cycle;
    EXPECT_NEAR(toNs(measured), toNs(table.total + serialization), 5.0);
}

TEST(Fabric, RmwCompareAndSwap)
{
    Simulation sim;
    CycleFabric fab(testbedConfig(), sim, {1});
    fab.host(1).store()->write64(0x3000, 5);

    mem::RmwResult r1, r2;
    fab.rmw(0, 1, 0x3000, mem::RmwOp::CompareAndSwap, 5, 99,
            [&](mem::RmwResult r, Picoseconds) { r1 = r; });
    sim.run();
    fab.rmw(0, 1, 0x3000, mem::RmwOp::CompareAndSwap, 5, 123,
            [&](mem::RmwResult r, Picoseconds) { r2 = r; });
    sim.run();

    EXPECT_TRUE(r1.swapped);
    EXPECT_EQ(r1.old_value, 5u);
    EXPECT_FALSE(r2.swapped);
    EXPECT_EQ(r2.old_value, 99u);
    EXPECT_EQ(fab.host(1).store()->read64(0x3000), 99u);
}

TEST(Fabric, ChunkedLargeRead)
{
    Simulation sim;
    EdmConfig cfg = testbedConfig();
    cfg.chunk_bytes = 256;
    CycleFabric fab(cfg, sim, {1});
    const auto data = pattern(1024, 3);
    fab.host(1).store()->write(0x8000, data);

    std::vector<std::uint8_t> got;
    fab.read(0, 1, 0x8000, 1024,
             [&](std::vector<std::uint8_t> d, Picoseconds, bool) {
                 got = std::move(d);
             });
    sim.run();
    EXPECT_EQ(got, data);
    // 1024 B at 256 B chunks: 1 implicit grant + 3 /G/ blocks.
    EXPECT_EQ(fab.switchStack().scheduler().grantsIssued(), 4u);
}

TEST(Fabric, ChunkedLargeWrite)
{
    Simulation sim;
    EdmConfig cfg = testbedConfig();
    cfg.chunk_bytes = 128;
    CycleFabric fab(cfg, sim, {1});
    const auto data = pattern(1000, 9);
    bool done = false;
    fab.write(0, 1, 0x9000, data, [&](Picoseconds) { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(fab.host(1).store()->read(0x9000, 1000), data);
}

TEST(Fabric, ManyOutstandingRequestsComplete)
{
    Simulation sim;
    CycleFabric fab(testbedConfig(), sim, {1});
    for (int i = 0; i < 32; ++i)
        fab.host(1).store()->write64(0x1000 + i * 8,
                                     static_cast<std::uint64_t>(i) * 11);
    int completions = 0;
    for (int i = 0; i < 32; ++i) {
        fab.read(0, 1, 0x1000 + static_cast<std::uint64_t>(i) * 8, 8,
                 [&, i](std::vector<std::uint8_t> d, Picoseconds, bool) {
                     ++completions;
                     ASSERT_EQ(d.size(), 8u);
                     EXPECT_EQ(d[0], static_cast<std::uint8_t>(i * 11));
                 });
    }
    sim.run();
    EXPECT_EQ(completions, 32);
    EXPECT_EQ(fab.readLatency().count(), 32u);
}

TEST(Fabric, PerDestinationCapParksExcessRequests)
{
    // X = 3 active requests per destination (§3.1.2): 150 reads posted
    // to each of two memory nodes, interleaved, still all complete, in
    // post order per destination — the backlog stays non-empty far
    // longer than X completions. The cap is per destination, so one
    // node's backlog never holds back the other's sends.
    constexpr int kReads = 150;
    Simulation sim;
    EdmConfig cfg = testbedConfig(3);
    cfg.max_notifications = 3;
    CycleFabric fab(cfg, sim, {1, 2});
    std::vector<int> order[2];
    std::vector<Picoseconds> done_at[2];
    for (int i = 0; i < kReads; ++i) {
        for (NodeId dst : {NodeId{1}, NodeId{2}}) {
            const std::size_t k = dst - 1u;
            fab.read(0, dst, 0x100, 64,
                     [&, i, k](std::vector<std::uint8_t>, Picoseconds,
                               bool) {
                         order[k].push_back(i);
                         done_at[k].push_back(sim.now());
                     });
        }
    }
    sim.run();
    for (std::size_t k = 0; k < 2; ++k) {
        ASSERT_EQ(order[k].size(), static_cast<std::size_t>(kReads));
        for (int i = 0; i < kReads; ++i)
            EXPECT_EQ(order[k][static_cast<std::size_t>(i)], i);
    }
    // Each destination's first three reads launch at once; its fourth
    // waits for a slot. With a shared cap, node 2's first read would
    // queue behind node 1's backlog instead.
    EXPECT_LT(done_at[1][0], done_at[0][3]);
    EXPECT_LT(done_at[0][0], done_at[1][3]);

    // A destination whose slots are all taken parks its excess while a
    // read to the other node, posted after all of them, goes straight
    // out.
    Simulation sim2;
    CycleFabric fab2(cfg, sim2, {1, 2});
    std::vector<Picoseconds> full_done;
    Picoseconds other_done = 0;
    for (int i = 0; i < 10; ++i) {
        fab2.read(0, 1, 0x100, 64,
                  [&](std::vector<std::uint8_t>, Picoseconds, bool) {
                      full_done.push_back(sim2.now());
                  });
    }
    fab2.read(0, 2, 0x100, 64,
              [&](std::vector<std::uint8_t>, Picoseconds, bool) {
                  other_done = sim2.now();
              });
    sim2.run();
    ASSERT_EQ(full_done.size(), 10u);
    EXPECT_GT(other_done, 0);
    EXPECT_LT(other_done, full_done[3]);
}

TEST(Fabric, ReadTimeoutYieldsNullResponse)
{
    // §3.3: a failed memory node must not deadlock the application; the
    // guard timer answers with a NULL (zero-size) response.
    Simulation sim;
    EdmConfig cfg = testbedConfig();
    cfg.read_timeout = 50 * kNanosecond; // fires before any completion
    CycleFabric fab(cfg, sim, {1});
    bool timed_out = false;
    std::size_t size = 99;
    fab.host(0).postRead(1, 0x1000, 64,
                         [&](std::vector<std::uint8_t> d, Picoseconds,
                             bool to) {
                             timed_out = to;
                             size = d.size();
                         });
    sim.run();
    EXPECT_TRUE(timed_out);
    EXPECT_EQ(size, 0u);
    EXPECT_EQ(fab.host(0).stats().read_timeouts, 1u);
}

TEST(Fabric, ThreeNodeConcurrentClients)
{
    Simulation sim;
    CycleFabric fab(testbedConfig(3), sim, {2});
    fab.host(2).store()->write64(0x10, 111);
    fab.host(2).store()->write64(0x20, 222);
    std::uint64_t a = 0, b = 0;
    fab.read(0, 2, 0x10, 8,
             [&](std::vector<std::uint8_t> d, Picoseconds, bool) {
                 a = d[0];
             });
    fab.read(1, 2, 0x20, 8,
             [&](std::vector<std::uint8_t> d, Picoseconds, bool) {
                 b = d[0];
             });
    sim.run();
    EXPECT_EQ(a, 111u);
    EXPECT_EQ(b, 222u);
}

TEST(Fabric, PreemptionKeepsMemoryLatencyFlat)
{
    // §4.2.1: under interference from large IP frames, EDM holds its
    // ~300 ns latency thanks to intra-frame preemption, and the frames
    // still arrive intact.
    Simulation sim;
    CycleFabric fab(testbedConfig(), sim, {1});
    fab.host(1).store()->write(0x1000, pattern(64));

    // Warm the DRAM row buffer so all measured reads are row hits and
    // the comparison isolates the fabric.
    fab.read(0, 1, 0x1000, 64);
    sim.run();

    // Baseline unloaded read.
    Picoseconds clean = 0;
    fab.read(0, 1, 0x1000, 64,
             [&](std::vector<std::uint8_t>, Picoseconds lat, bool) {
                 clean = lat;
             });
    sim.run();

    // Saturate the compute node's uplink with jumbo frames, then read.
    mac::Frame jumbo;
    jumbo.payload.assign(8900, 0xEE);
    const auto frame_bytes = mac::serialize(jumbo);
    for (int i = 0; i < 4; ++i)
        fab.injectFrame(0, frame_bytes);
    Picoseconds loaded = 0;
    fab.read(0, 1, 0x1000, 64,
             [&](std::vector<std::uint8_t>, Picoseconds lat, bool) {
                 loaded = lat;
             });
    sim.run();

    // Without preemption the read would wait for ~4 jumbo frames
    // (~11.4 us at 25G); with it, the penalty is a handful of block
    // slots from fair 66-bit multiplexing.
    EXPECT_LT(loaded, clean + 2 * kMicrosecond);
    EXPECT_GE(loaded, clean); // some interference is physical
    EXPECT_EQ(fab.host(1).stats().frames_received, 4u);
}

TEST(Fabric, NotifyAndGrantAccounting)
{
    Simulation sim;
    CycleFabric fab(testbedConfig(), sim, {1});
    fab.write(0, 1, 0x100, pattern(64));
    sim.run();
    EXPECT_EQ(fab.host(0).stats().notify_blocks_sent, 1u);
    EXPECT_EQ(fab.host(0).stats().grant_blocks_received, 1u);
    EXPECT_EQ(fab.switchStack().stats().notify_blocks, 1u);
    EXPECT_EQ(fab.switchStack().stats().grants_sent, 1u);
}

} // namespace
} // namespace core
} // namespace edm
