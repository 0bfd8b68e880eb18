/** Tests for the fetch target queue. */

#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "frontend/ftq.hh"

using namespace fdip;

namespace
{

FetchBlock
mkBlock(Addr start, unsigned n)
{
    FetchBlock b;
    b.startPc = start;
    b.numInsts = n;
    b.validLen = n;
    return b;
}

} // namespace

TEST(Ftq, PushPopFifo)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x1000, 8));
    ftq.push(mkBlock(0x2000, 4));
    EXPECT_EQ(ftq.size(), 2u);
    EXPECT_EQ(ftq.head().blk.startPc, 0x1000u);
    ftq.popHead();
    EXPECT_EQ(ftq.head().blk.startPc, 0x2000u);
}

TEST(Ftq, EntryBookkeepingStartsAtZero)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x1000, 8));
    EXPECT_EQ(ftq.head().fetchedInsts, 0u);
    EXPECT_EQ(ftq.head().nextScanBlock, 0u);
}

TEST(Ftq, CacheBlockEnumerationAligned)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x1000, 8)); // exactly one 32B block
    EXPECT_EQ(ftq.numCacheBlocks(0), 1u);
    EXPECT_EQ(ftq.cacheBlockAddr(0, 0), 0x1000u);
}

TEST(Ftq, CacheBlockEnumerationStraddling)
{
    Ftq ftq(4, 32);
    // Starts 3 instructions before a block boundary, 8 instructions:
    // spans two cache blocks.
    ftq.push(mkBlock(0x1000 + 5 * instBytes, 8));
    EXPECT_EQ(ftq.numCacheBlocks(0), 2u);
    EXPECT_EQ(ftq.cacheBlockAddr(0, 0), 0x1000u);
    EXPECT_EQ(ftq.cacheBlockAddr(0, 1), 0x1020u);
}

TEST(Ftq, SingleInstructionBlock)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x101c, 1));
    EXPECT_EQ(ftq.numCacheBlocks(0), 1u);
    EXPECT_EQ(ftq.cacheBlockAddr(0, 0), 0x1000u);
}

TEST(Ftq, FlushEmptiesAndCounts)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x1000, 8));
    ftq.push(mkBlock(0x2000, 8));
    ftq.flush();
    EXPECT_TRUE(ftq.empty());
    EXPECT_EQ(ftq.stats.counter("ftq.flushes"), 1u);
    EXPECT_EQ(ftq.stats.counter("ftq.flushed_blocks"), 2u);
}

TEST(Ftq, OccupancySampling)
{
    Ftq ftq(8, 32);
    ftq.sampleOccupancy(); // 0
    ftq.push(mkBlock(0x1000, 8));
    ftq.sampleOccupancy(); // 1
    ftq.push(mkBlock(0x2000, 8));
    ftq.sampleOccupancy(); // 2
    ftq.sampleOccupancy(); // 2
    const Histogram &h = ftq.occupancyHist();
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    ftq.resetOccupancy();
    EXPECT_EQ(ftq.occupancyHist().count(), 0u);
}

TEST(Ftq, FullBlocksPush)
{
    Ftq ftq(2, 32);
    ftq.push(mkBlock(0x1000, 8));
    ftq.push(mkBlock(0x2000, 8));
    EXPECT_TRUE(ftq.full());
    EXPECT_DEATH(ftq.push(mkBlock(0x3000, 8)), "full");
}

TEST(Ftq, StatsTrackInstructionVolume)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x1000, 8));
    ftq.push(mkBlock(0x2000, 3));
    EXPECT_EQ(ftq.stats.counter("ftq.pushed_insts"), 11u);
    EXPECT_EQ(ftq.stats.counter("ftq.pushed_blocks"), 2u);
}

TEST(Ftq, BlockSpanningThreeCacheLines)
{
    Ftq ftq(4, 32);
    // Last instruction of one line, a full line, first of the next.
    ftq.push(mkBlock(0x101c, 10));
    EXPECT_EQ(ftq.numCacheBlocks(0), 3u);
    EXPECT_EQ(ftq.cacheBlockAddr(0, 0), 0x1000u);
    EXPECT_EQ(ftq.cacheBlockAddr(0, 1), 0x1020u);
    EXPECT_EQ(ftq.cacheBlockAddr(0, 2), 0x1040u);
}

TEST(Ftq, HeadSeqCountsPopsAndFlushes)
{
    Ftq ftq(4, 32);
    EXPECT_EQ(ftq.headSeq(), 0u);
    ftq.push(mkBlock(0x1000, 8));
    ftq.push(mkBlock(0x2000, 8));
    ftq.push(mkBlock(0x3000, 8));
    ftq.popHead();
    EXPECT_EQ(ftq.headSeq(), 1u);
    ftq.flush();
    EXPECT_EQ(ftq.headSeq(), 3u);
    ftq.flush(); // flushing an empty queue moves nothing
    EXPECT_EQ(ftq.headSeq(), 3u);
}

TEST(Ftq, IncrementalStateMatchesBruteForceRecount)
{
    // Randomized push/pop/flush script against a reference model: the
    // head sequence is the count of entries ever popped or flushed, and
    // each entry's cached geometry equals the distinct cache lines its
    // instructions touch, enumerated one instruction at a time.
    struct Ref
    {
        std::uint64_t seq;
        Addr start;
        unsigned n;
    };
    const unsigned line = 32;
    Ftq ftq(8, line);
    std::deque<Ref> ref;
    std::uint64_t next_seq = 0;
    std::uint64_t removed = 0;
    Rng rng(0xf7a);
    for (int step = 0; step < 20000; ++step) {
        std::uint64_t op = rng.below(10);
        if (op < 6 && !ftq.full()) {
            Addr start = 0x10000 + rng.below(4096) * instBytes;
            auto n = static_cast<unsigned>(rng.range(1, 24));
            ftq.push(mkBlock(start, n));
            ref.push_back({next_seq++, start, n});
        } else if (op < 9 && !ftq.empty()) {
            ftq.popHead();
            ref.pop_front();
            ++removed;
        } else if (op == 9) {
            ftq.flush();
            removed += ref.size();
            ref.clear();
        }
        ASSERT_EQ(ftq.headSeq(), removed);
        ASSERT_EQ(ftq.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_EQ(ftq.headSeq() + i, ref[i].seq);
            std::vector<Addr> lines;
            for (unsigned k = 0; k < ref[i].n; ++k) {
                Addr a = (ref[i].start + k * instBytes) & ~Addr(line - 1);
                if (lines.empty() || lines.back() != a)
                    lines.push_back(a);
            }
            ASSERT_EQ(ftq.at(i).blk.startPc, ref[i].start);
            ASSERT_EQ(ftq.numCacheBlocks(i), lines.size());
            for (unsigned k = 0; k < lines.size(); ++k)
                ASSERT_EQ(ftq.cacheBlockAddr(i, k), lines[k]);
        }
    }
}
