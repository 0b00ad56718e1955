/**
 * @file
 * Unit tests for the wire-occupancy model (src/core/occupancy.hpp):
 * block counts and line-times pinned against hand-computed wire math
 * for boundary payload sizes, and the payload port charge.
 *
 * The hand arithmetic (also worked in docs/WIRE_FORMAT.md): a 66-bit
 * block slot at 25G is 64 payload bits / 25 Gb/s = 2.56 ns. A WREQ
 * chunk is /MS/ + addr + ceil(p / 8) data blocks + /MT/; an RRES chunk
 * is /MS/ + ceil(p / 8) + /MT/ (or a single /MST/ when header-only).
 */

#include <gtest/gtest.h>

#include "core/occupancy.hpp"

namespace edm {
namespace core {
namespace {

constexpr Gbps k25{25.0};
constexpr Gbps k100{100.0};

TEST(Occupancy, BlockSlotMatchesPcsClock)
{
    // 64 payload bits per 66-bit block: 2.56 ns at 25G — the PCS block
    // clock the whole simulator runs on — and 0.64 ns at 100G.
    EXPECT_EQ(wireBlockTime(k25), kPcsBlockSlot);
    EXPECT_EQ(wireBlockTime(k25), 2560);
    EXPECT_EQ(wireBlockTime(k100), 640);
    EXPECT_EQ(lineTime(35, k25), 35 * 2560);
}

TEST(Occupancy, BlockCountsAtBoundaryPayloads)
{
    // WREQ: /MS/ + addr + ceil(p/8) + /MT/.
    EXPECT_EQ(wireBlocks(MemMsgType::WREQ, 0), 3u);
    EXPECT_EQ(wireBlocks(MemMsgType::WREQ, 1), 4u);
    EXPECT_EQ(wireBlocks(MemMsgType::WREQ, 255), 35u); // ceil(255/8)=32
    EXPECT_EQ(wireBlocks(MemMsgType::WREQ, 256), 35u);
    EXPECT_EQ(wireBlocks(MemMsgType::WREQ, 257), 36u);
    // Max 16-bit wire length: ceil(65535/8) = 8192 data blocks.
    EXPECT_EQ(wireBlocks(MemMsgType::WREQ, 0xFFFF), 8195u);

    // RRES: /MS/ + ceil(p/8) + /MT/; header-only is one /MST/.
    EXPECT_EQ(wireBlocks(MemMsgType::RRES, 0), 1u);
    EXPECT_EQ(wireBlocks(MemMsgType::RRES, 1), 3u);
    EXPECT_EQ(wireBlocks(MemMsgType::RRES, 255), 34u);
    EXPECT_EQ(wireBlocks(MemMsgType::RRES, 256), 34u);
    EXPECT_EQ(wireBlocks(MemMsgType::RRES, 257), 35u);
    EXPECT_EQ(wireBlocks(MemMsgType::RRES, 0xFFFF), 8194u);

    // Requests: RREQ = /MS/ + addr + /MT/; RMWREQ adds two args.
    EXPECT_EQ(wireBlocks(MemMsgType::RREQ, 0), 3u);
    EXPECT_EQ(wireBlocks(MemMsgType::RMWREQ, 0), 5u);
}

TEST(Occupancy, ChunkLineTimesAtBoundaryPayloads)
{
    // The worked example of ROADMAP/docs: a 256 B write chunk is
    // 35 blocks = 89.6 ns at 25G, vs the 81.92 ns the raw payload
    // charge l/B accounts for.
    EXPECT_EQ(chunkLineTime(MemMsgType::WREQ, 256, k25), 89600);
    EXPECT_EQ(transmissionDelay(256, k25), 81920);
    EXPECT_EQ(chunkLineTime(MemMsgType::RRES, 256, k25), 87040);

    EXPECT_EQ(chunkLineTime(MemMsgType::WREQ, 0, k25), 3 * 2560);
    EXPECT_EQ(chunkLineTime(MemMsgType::WREQ, 1, k25), 4 * 2560);
    EXPECT_EQ(chunkLineTime(MemMsgType::WREQ, 255, k25), 35 * 2560);
    EXPECT_EQ(chunkLineTime(MemMsgType::WREQ, 257, k25), 36 * 2560);
    EXPECT_EQ(chunkLineTime(MemMsgType::RRES, 0, k25), 2560);
    EXPECT_EQ(chunkLineTime(MemMsgType::RRES, 0xFFFF, k25),
              8194 * 2560);
    // Rate scales per block: the same chunk at 100G.
    EXPECT_EQ(chunkLineTime(MemMsgType::RRES, 256, k100), 34 * 640);
}

TEST(Occupancy, GrantOccupancyIsRawPayloadDelay)
{
    const EdmConfig cfg;
    for (const Bytes chunk : {1ull, 255ull, 256ull, 257ull, 700ull})
        EXPECT_EQ(grantOccupancy(cfg, chunk),
                  transmissionDelay(chunk, cfg.link_rate));
    // The default 256 B chunk at 25G: 81.92 ns (docs/WIRE_FORMAT.md).
    EXPECT_EQ(grantOccupancy(cfg, 256), 81920);
}

TEST(Occupancy, RequestForwardOccupancyRoundsWireBytes)
{
    MemMessage rreq;
    rreq.type = MemMsgType::RREQ;

    const EdmConfig cfg;
    // The historical byte rounding: wireBytes(RREQ) = 3 * 8.25 = 24.75,
    // + 1.0 truncated to 25 B.
    EXPECT_EQ(requestForwardOccupancy(cfg, rreq),
              transmissionDelay(25, cfg.link_rate));
    EXPECT_EQ(requestForwardOccupancy(cfg, rreq), 8000);
}

TEST(Occupancy, StagingGrowthEstimate)
{
    const EdmConfig cfg;
    // Payload under-charge per 256 B write chunk: 89.6 - 81.92 ns
    // = 3 block slots left behind in egress staging per chunk.
    EXPECT_DOUBLE_EQ(stagingGrowthBlocksPerChunk(cfg, false, 256), 3.0);
    // RRES chunks leave 2 effective... (87.04 - 81.92) / 2.56 = 2.
    EXPECT_DOUBLE_EQ(stagingGrowthBlocksPerChunk(cfg, true, 256), 2.0);
    // Frame coexistence adds the preemption re-entry slot.
    EXPECT_DOUBLE_EQ(
        stagingGrowthBlocksPerChunk(cfg, false, 256, true), 4.0);
}

TEST(Occupancy, WireByteBudgetsMatchBlockCounts)
{
    // The analytic bandwidth model's byte budgets are the same block
    // counts denominated in 66-bit bytes.
    EXPECT_DOUBLE_EQ(wireOccupancyBytes(MemMsgType::RREQ, 0),
                     3 * 66.0 / 8.0);
    EXPECT_DOUBLE_EQ(wireOccupancyBytes(MemMsgType::WREQ, 256),
                     35 * 66.0 / 8.0);
    EXPECT_DOUBLE_EQ(kBlockWireBytes, 8.25);
}

} // namespace
} // namespace core
} // namespace edm
