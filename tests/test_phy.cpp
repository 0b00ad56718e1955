/**
 * @file
 * Unit tests for the PHY layer: blocks, scrambler, PCS framing,
 * intra-frame preemption.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hpp"
#include "phy/block.hpp"
#include "phy/pcs.hpp"
#include "phy/preemption.hpp"
#include "phy/scrambler.hpp"
#include "phy/serdes.hpp"

namespace edm {
namespace phy {
namespace {

TEST(Block, ControlRoundTrip)
{
    const PhyBlock b = PhyBlock::control(BlockType::MemStart, 0xABCDEF);
    EXPECT_TRUE(b.isControl());
    EXPECT_EQ(b.type(), BlockType::MemStart);
    EXPECT_EQ(b.controlPayload(), 0xABCDEFu);
}

TEST(Block, DataBlock)
{
    const PhyBlock b = PhyBlock::data(0x1122334455667788ULL);
    EXPECT_TRUE(b.isData());
    EXPECT_EQ(b.payload, 0x1122334455667788ULL);
}

TEST(Block, TerminateCodes)
{
    for (int n = 0; n <= 7; ++n) {
        const BlockType t = terminateCode(n);
        EXPECT_TRUE(isTerminate(t));
        EXPECT_EQ(terminateDataBytes(t), n);
    }
    EXPECT_FALSE(isTerminate(BlockType::Start));
    EXPECT_FALSE(isTerminate(BlockType::MemTerm));
}

TEST(Block, EdmTypesAreRecognized)
{
    EXPECT_TRUE(isEdmControl(BlockType::MemStart));
    EXPECT_TRUE(isEdmControl(BlockType::MemTerm));
    EXPECT_TRUE(isEdmControl(BlockType::MemSingle));
    EXPECT_TRUE(isEdmControl(BlockType::Notify));
    EXPECT_TRUE(isEdmControl(BlockType::Grant));
    EXPECT_FALSE(isEdmControl(BlockType::Idle));
    EXPECT_FALSE(isEdmControl(BlockType::Start));
}

TEST(Block, EdmTypeCodesAvoidStandardCodes)
{
    // EDM block-type values must not collide with standard 802.3 codes.
    const BlockType standard[] = {
        BlockType::Idle, BlockType::Start, BlockType::Ordered,
        BlockType::Term0, BlockType::Term1, BlockType::Term2,
        BlockType::Term3, BlockType::Term4, BlockType::Term5,
        BlockType::Term6, BlockType::Term7,
    };
    const BlockType custom[] = {
        BlockType::MemStart, BlockType::MemTerm, BlockType::MemSingle,
        BlockType::Notify, BlockType::Grant,
    };
    for (auto c : custom) {
        for (auto s : standard)
            EXPECT_NE(c, s);
    }
}

class ScramblerRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ScramblerRoundTrip, MatchedSeedsRecoverData)
{
    Scrambler tx;
    Descrambler rx(tx.state());
    Rng rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t data = rng.next();
        EXPECT_EQ(rx.descramble(tx.scramble(data)), data);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScramblerRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 0xFFFFu, 0xDEADu));

TEST(Scrambler, SelfSynchronizing)
{
    // A descrambler starting from a wrong state recovers after 58 bits
    // (one 64-bit block) of line data.
    Scrambler tx;
    Descrambler rx(0); // wrong seed
    Rng rng(77);
    (void)rx.descramble(tx.scramble(rng.next())); // sync-up block
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t data = rng.next();
        EXPECT_EQ(rx.descramble(tx.scramble(data)), data);
    }
}

TEST(Scrambler, OutputLooksRandom)
{
    // All-zero input must not produce all-zero line bits (the whole
    // point of scrambling: transition density).
    Scrambler tx(0x155555555555555ULL);
    int nonzero = 0;
    for (int i = 0; i < 16; ++i)
        nonzero += tx.scramble(0) != 0;
    EXPECT_GE(nonzero, 15);
}

TEST(Pcs, MinFrameIsNineBlocks)
{
    // §3.2: at least 9 PHY blocks per minimum 64 B Ethernet frame.
    EXPECT_EQ(frameBlockCount(64), 9u);
    const std::vector<std::uint8_t> frame(64, 0xAA);
    EXPECT_EQ(encodeFrame(frame).size(), 9u);
}

class PcsRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(PcsRoundTrip, EncodeDecodeIdentity)
{
    const auto size = static_cast<std::size_t>(GetParam());
    std::vector<std::uint8_t> frame(size);
    Rng rng(size);
    for (auto &b : frame)
        b = static_cast<std::uint8_t>(rng.next());

    const auto blocks = encodeFrame(frame);
    EXPECT_EQ(blocks.size(), frameBlockCount(size));
    EXPECT_EQ(blocks.front().type(), BlockType::Start);
    EXPECT_TRUE(isTerminate(blocks.back().type()));

    FrameDecoder dec;
    std::vector<std::uint8_t> out;
    for (const auto &b : blocks) {
        if (auto f = dec.feed(b))
            out = std::move(*f);
    }
    EXPECT_EQ(out, frame);
    EXPECT_EQ(dec.violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(FrameSizes, PcsRoundTrip,
                         ::testing::Values(64, 65, 70, 71, 72, 100, 128,
                                           512, 1024, 1518, 9018));

TEST(Pcs, DecoderIgnoresIdleBetweenFrames)
{
    const std::vector<std::uint8_t> frame(64, 0x42);
    const auto blocks = encodeFrame(frame);
    FrameDecoder dec;
    dec.feed(PhyBlock::idle());
    int frames = 0;
    for (const auto &b : blocks) {
        if (dec.feed(b))
            ++frames;
    }
    dec.feed(PhyBlock::idle());
    EXPECT_EQ(frames, 1);
}

TEST(Pcs, DataOutsideFrameCountsViolation)
{
    FrameDecoder dec;
    dec.feed(PhyBlock::data(0x1234));
    EXPECT_EQ(dec.violations(), 1u);
}

TEST(Serdes, PaperConstants)
{
    EXPECT_EQ(kSerdesCrossing, 19 * kNanosecond);
    EXPECT_EQ(kHopPropagation, 10 * kNanosecond);
    EXPECT_EQ(kCrossingsPerTraversal, 2);
}

// ---- preemption ----

std::vector<PhyBlock>
memoryMessage(int data_blocks)
{
    std::vector<PhyBlock> blocks;
    blocks.push_back(PhyBlock::control(BlockType::MemStart, 0x1));
    for (int i = 0; i < data_blocks; ++i)
        blocks.push_back(PhyBlock::data(static_cast<std::uint64_t>(i)));
    blocks.push_back(PhyBlock::control(BlockType::MemTerm, 0));
    return blocks;
}

TEST(PreemptionMux, IdleWhenEmpty)
{
    PreemptionMux mux;
    EXPECT_FALSE(mux.hasWork());
    EXPECT_EQ(mux.next(), PhyBlock::idle());
    EXPECT_EQ(mux.idleSlots(), 1u);
}

TEST(PreemptionMux, MemoryOnlyStreams)
{
    PreemptionMux mux;
    mux.enqueueMemory(memoryMessage(2));
    EXPECT_EQ(mux.memoryBacklog(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(mux.next() != PhyBlock::idle());
    EXPECT_FALSE(mux.hasWork());
    EXPECT_EQ(mux.memorySlots(), 4u);
}

TEST(PreemptionMux, FrameBufferBackpressure)
{
    PreemptionMux mux;
    for (std::size_t i = 0; i < PreemptionMux::kFrameBufferBlocks; ++i)
        EXPECT_TRUE(mux.offerFrameBlock(PhyBlock::data(i)));
    EXPECT_FALSE(mux.frameSpace());
    EXPECT_FALSE(mux.offerFrameBlock(PhyBlock::data(99)));
    (void)mux.next();
    EXPECT_TRUE(mux.frameSpace());
}

TEST(PreemptionMux, FairPolicyAlternates)
{
    PreemptionMux mux(TxPolicy::Fair);
    mux.enqueueMemory(PhyBlock::control(BlockType::Notify, 1));
    mux.enqueueMemory(PhyBlock::control(BlockType::Notify, 2));
    mux.offerFrameBlock(PhyBlock::data(0xF0));
    mux.offerFrameBlock(PhyBlock::data(0xF1));
    // memory, frame, memory, frame
    EXPECT_EQ(mux.next().type(), BlockType::Notify);
    EXPECT_TRUE(mux.next().isData());
    EXPECT_EQ(mux.next().type(), BlockType::Notify);
    EXPECT_TRUE(mux.next().isData());
}

TEST(PreemptionMux, MemoryFirstPolicyStarvesFrames)
{
    PreemptionMux mux(TxPolicy::MemoryFirst);
    mux.enqueueMemory(PhyBlock::control(BlockType::Notify, 1));
    mux.enqueueMemory(PhyBlock::control(BlockType::Notify, 2));
    mux.offerFrameBlock(PhyBlock::data(0xF0));
    EXPECT_EQ(mux.next().type(), BlockType::Notify);
    EXPECT_EQ(mux.next().type(), BlockType::Notify);
    EXPECT_TRUE(mux.next().isData());
}

TEST(PreemptionMux, MemoryMessageNotInterleaved)
{
    // Once an /MS/ goes out, the whole message streams contiguously even
    // under the fair policy.
    PreemptionMux mux(TxPolicy::Fair);
    mux.enqueueMemory(memoryMessage(3)); // MS D D D MT
    for (int i = 0; i < 5; ++i)
        mux.offerFrameBlock(PhyBlock::data(0xF0 + static_cast<unsigned>(i)));
    std::vector<PhyBlock> out;
    for (int i = 0; i < 8; ++i)
        out.push_back(mux.next());
    // Find MS; everything until MT must be memory blocks.
    std::size_t ms = 0;
    while (out[ms].isData() || out[ms].type() != BlockType::MemStart)
        ++ms;
    for (std::size_t i = ms + 1; out[i].isControl() == false ||
             out[i].type() != BlockType::MemTerm; ++i) {
        EXPECT_TRUE(out[i].isData()) << "interleaved at " << i;
    }
}

/**
 * Reference model of the mux's memory stream: a vector kept sorted by
 * availability with stable ties (every enqueue form is a per-block
 * upper-bound insert), emitting the head once it is available.
 */
struct RefMemoryQueue
{
    struct Entry
    {
        PhyBlock block;
        Picoseconds ready;
    };

    std::vector<Entry> q;
    bool mid_message = false;
    std::uint64_t slots = 0;

    void
    enqueue(const PhyBlock &b, Picoseconds ready)
    {
        auto pos = std::upper_bound(
            q.begin(), q.end(), ready,
            [](Picoseconds r, const Entry &e) { return r < e.ready; });
        q.insert(pos, Entry{b, ready});
    }

    PhyBlock
    next(Picoseconds now)
    {
        if (q.empty() || q.front().ready > now)
            return PhyBlock::idle();
        const PhyBlock b = q.front().block;
        q.erase(q.begin());
        ++slots;
        if (b.isControl() && b.type() == BlockType::MemStart)
            mid_message = true;
        else if (b.isControl() && b.type() == BlockType::MemTerm)
            mid_message = false;
        return b;
    }

    std::vector<Entry>
    takeTrainRun(Picoseconds start, Picoseconds cycle, std::size_t max,
                 std::size_t min_run)
    {
        if (!mid_message)
            return {};
        std::size_t n = 0;
        while (n < max && n < q.size() && q[n].block.isData() &&
               q[n].ready <= start + static_cast<Picoseconds>(n) * cycle)
            ++n;
        if (n < min_run)
            return {};
        std::vector<Entry> run(q.begin(),
                               q.begin() + static_cast<std::ptrdiff_t>(n));
        q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(n));
        slots += n;
        return run;
    }

    void
    restore(const std::vector<Entry> &run)
    {
        // Merge by availability, restored blocks first on ties.
        std::size_t pos = 0;
        for (const Entry &e : run) {
            while (pos < q.size() && q[pos].ready < e.ready)
                ++pos;
            q.insert(q.begin() + static_cast<std::ptrdiff_t>(pos++), e);
        }
        slots -= run.size();
    }

    Picoseconds
    headAvail() const
    {
        return q.empty() ? PreemptionMux::kNever : q.front().ready;
    }
};

TEST(PreemptionMux, RandomizedMemoryStreamMatchesReference)
{
    constexpr Picoseconds kCycle = 2560;
    Rng rng(0x5EED);
    PreemptionMux mux;
    RefMemoryQueue ref;
    Picoseconds now = 0;
    std::uint64_t serial = 0;
    std::vector<RefMemoryQueue::Entry> last_run;

    // Mostly data, with enough /MS/ /MT/ /N/ to open and close messages
    // (trains only form mid-message) and to stop runs at control blocks.
    auto randomBlock = [&] {
        const std::uint64_t id = ++serial;
        switch (rng.uniformInt(std::uint64_t{10})) {
          case 0:
            return PhyBlock::control(BlockType::MemStart, id);
          case 1:
            return PhyBlock::control(BlockType::MemTerm, id);
          case 2:
            return PhyBlock::control(BlockType::Notify, id);
          default:
            return PhyBlock::data(id);
        }
    };
    // Availability a few slots around now, so ties and out-of-order
    // arrivals (a later stamp already queued) are both common.
    auto randomReady = [&] {
        return now + static_cast<Picoseconds>(
                         rng.uniformInt(std::uint64_t{6})) *
                         kCycle;
    };

    for (int step = 0; step < 20000; ++step) {
        SCOPED_TRACE(step);
        // Past a few dozen queued blocks only slots, trains and
        // give-backs run, so the queue keeps wrapping at a bounded size.
        const std::uint64_t op = ref.q.size() > 48
                                     ? 4 + rng.uniformInt(std::uint64_t{4})
                                     : rng.uniformInt(std::uint64_t{8});
        switch (op) {
          case 0: { // single block
            const PhyBlock b = randomBlock();
            const Picoseconds ready = randomReady();
            mux.enqueueMemory(b, ready);
            ref.enqueue(b, ready);
            break;
          }
          case 1: { // vector, one shared stamp
            std::vector<PhyBlock> bs(rng.uniformInt(std::uint64_t{6}));
            for (auto &b : bs)
                b = randomBlock();
            const Picoseconds ready = randomReady();
            mux.enqueueMemory(bs, ready);
            for (const auto &b : bs)
                ref.enqueue(b, ready);
            break;
          }
          case 2: { // cut-through run, strided stamps
            std::vector<PhyBlock> bs(rng.uniformInt(std::uint64_t{12}));
            for (auto &b : bs)
                b = randomBlock();
            const Picoseconds first = randomReady();
            const Picoseconds stride = static_cast<Picoseconds>(
                rng.uniformInt(std::uint64_t{2}) * kCycle);
            mux.enqueueMemoryRun(bs.data(), bs.size(), first, stride);
            for (std::size_t i = 0; i < bs.size(); ++i)
                ref.enqueue(bs[i],
                            first + static_cast<Picoseconds>(i) * stride);
            break;
          }
          case 3: { // explicit non-decreasing stamps
            const std::size_t n = rng.uniformInt(std::uint64_t{8});
            std::vector<PhyBlock> bs(n);
            std::vector<Picoseconds> avails(n);
            Picoseconds t = randomReady();
            for (std::size_t i = 0; i < n; ++i) {
                bs[i] = randomBlock();
                t += static_cast<Picoseconds>(
                         rng.uniformInt(std::uint64_t{2})) *
                     kCycle;
                avails[i] = t;
            }
            mux.enqueueMemoryList(bs.data(), avails.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                ref.enqueue(bs[i], avails[i]);
            break;
          }
          case 4:
          case 5: { // one slot
            EXPECT_EQ(mux.next(now), ref.next(now));
            now += kCycle;
            break;
          }
          case 6: { // train
            const std::size_t max = 1 + rng.uniformInt(std::uint64_t{16});
            const std::size_t min_run = 1 + rng.uniformInt(std::uint64_t{3});
            // Pre-filled outputs check that the run is appended.
            std::vector<PhyBlock> blocks{PhyBlock::idle()};
            std::vector<Picoseconds> avails{-1};
            const std::size_t n =
                mux.takeTrainRun(now, kCycle, max, min_run, blocks, avails);
            last_run = ref.takeTrainRun(now, kCycle, max, min_run);
            ASSERT_EQ(n, last_run.size());
            ASSERT_EQ(blocks.size(), n + 1);
            ASSERT_EQ(avails.size(), n + 1);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(blocks[i + 1], last_run[i].block);
                EXPECT_EQ(avails[i + 1], last_run[i].ready);
            }
            now += static_cast<Picoseconds>(n) * kCycle;
            break;
          }
          default: { // give back the uncommitted tail of the last train
            if (last_run.empty() || !mux.midMemoryMessage())
                break;
            const std::size_t keep = rng.uniformInt(last_run.size());
            std::vector<RefMemoryQueue::Entry> tail(
                last_run.begin() + static_cast<std::ptrdiff_t>(keep),
                last_run.end());
            std::vector<PhyBlock> bs;
            std::vector<Picoseconds> avails;
            for (const auto &e : tail) {
                bs.push_back(e.block);
                avails.push_back(e.ready);
            }
            mux.restoreMemoryRun(bs.data(), avails.data(), bs.size());
            ref.restore(tail);
            last_run.clear();
            break;
          }
        }
        ASSERT_EQ(mux.midMemoryMessage(), ref.mid_message);
        ASSERT_EQ(mux.headAvail(), ref.headAvail());
        ASSERT_EQ(mux.memoryBacklog(), ref.q.size());
        ASSERT_EQ(mux.memorySlots(), ref.slots);
    }
    // Drain: every queued block leaves in reference order.
    while (!ref.q.empty()) {
        now = std::max(now, ref.q.front().ready);
        ASSERT_EQ(mux.next(now), ref.next(now));
    }
    EXPECT_FALSE(mux.hasWork());
}

TEST(PreemptionDemux, ExtractsMemoryAndReassemblesFrame)
{
    std::vector<PhyBlock> mem_blocks;
    std::vector<std::vector<PhyBlock>> frames;
    PreemptionDemux demux(
        [&](const PhyBlock &b) { mem_blocks.push_back(b); },
        [&](std::vector<PhyBlock> f) { frames.push_back(std::move(f)); });

    // A frame preempted mid-way by a memory message.
    const std::vector<std::uint8_t> payload(64, 0x5A);
    const auto frame_blocks = encodeFrame(payload);
    const auto msg = memoryMessage(2);

    std::size_t fi = 0;
    // First three frame blocks...
    for (; fi < 3; ++fi)
        demux.feed(frame_blocks[fi]);
    // ...the memory message preempts...
    for (const auto &b : msg)
        demux.feed(b);
    EXPECT_EQ(mem_blocks.size(), msg.size());
    EXPECT_TRUE(frames.empty()); // frame still buffered
    // ...and the frame resumes.
    for (; fi < frame_blocks.size(); ++fi)
        demux.feed(frame_blocks[fi]);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].size(), frame_blocks.size());

    // The released frame decodes to the original bytes.
    FrameDecoder dec;
    std::vector<std::uint8_t> out;
    for (const auto &b : frames[0]) {
        if (auto f = dec.feed(b))
            out = *f;
    }
    EXPECT_EQ(out, payload);
}

TEST(PreemptionDemux, FrameHeldUntilTerminate)
{
    // §3.2.3: the RX buffers a frame until its /T/ arrives, bounding the
    // buffer by the maximum frame size.
    int frames = 0;
    PreemptionDemux demux([](const PhyBlock &) {},
                          [&](std::vector<PhyBlock>) { ++frames; });
    const auto blocks = encodeFrame(std::vector<std::uint8_t>(1518, 1));
    for (std::size_t i = 0; i + 1 < blocks.size(); ++i)
        demux.feed(blocks[i]);
    EXPECT_EQ(frames, 0);
    EXPECT_EQ(demux.frameBuffered(), blocks.size() - 1);
    demux.feed(blocks.back());
    EXPECT_EQ(frames, 1);
    EXPECT_EQ(demux.frameBuffered(), 0u);
}

TEST(PreemptionDemux, SingleBlockMessagePassesThrough)
{
    std::vector<PhyBlock> mem_blocks;
    PreemptionDemux demux(
        [&](const PhyBlock &b) { mem_blocks.push_back(b); },
        [](std::vector<PhyBlock>) {});
    demux.feed(PhyBlock::control(BlockType::MemSingle, 0x77));
    demux.feed(PhyBlock::control(BlockType::Notify, 0x88));
    demux.feed(PhyBlock::control(BlockType::Grant, 0x99));
    EXPECT_EQ(mem_blocks.size(), 3u);
}

} // namespace
} // namespace phy
} // namespace edm
