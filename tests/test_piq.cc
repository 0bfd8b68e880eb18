/** Tests for the prefetch instruction queue. */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "prefetch/piq.hh"

using namespace fdip;

TEST(Piq, PushFrontPop)
{
    Piq piq(4);
    piq.push(0x1000);
    piq.push(0x2000);
    EXPECT_EQ(piq.front().blockAddr, 0x1000u);
    piq.popFront();
    EXPECT_EQ(piq.front().blockAddr, 0x2000u);
}

TEST(Piq, EntriesStartUnprobed)
{
    Piq piq(4);
    piq.push(0x1000);
    EXPECT_FALSE(piq.front().probed());
    piq.markProbed(0);
    EXPECT_TRUE(piq.at(0).probed());
}

TEST(Piq, Contains)
{
    Piq piq(4);
    piq.push(0x1000);
    piq.push(0x2000);
    EXPECT_TRUE(piq.contains(0x1000));
    EXPECT_TRUE(piq.contains(0x2000));
    EXPECT_FALSE(piq.contains(0x3000));
}

TEST(Piq, RemoveAtCompactsInOrder)
{
    Piq piq(8);
    piq.push(0x1000);
    piq.push(0x2000);
    piq.push(0x3000);
    piq.removeAt(1);
    EXPECT_EQ(piq.size(), 2u);
    EXPECT_EQ(piq.at(0).blockAddr, 0x1000u);
    EXPECT_EQ(piq.at(1).blockAddr, 0x3000u);
    EXPECT_EQ(piq.stats.counter("piq.removed"), 1u);
}

TEST(Piq, RemoveHead)
{
    Piq piq(8);
    piq.push(0x1000);
    piq.push(0x2000);
    piq.removeAt(0);
    EXPECT_EQ(piq.front().blockAddr, 0x2000u);
}

TEST(Piq, FlushCounts)
{
    Piq piq(8);
    piq.push(0x1000);
    piq.push(0x2000);
    piq.flush();
    EXPECT_TRUE(piq.empty());
    EXPECT_EQ(piq.stats.counter("piq.flushed_entries"), 2u);
}

TEST(PiqDeath, OverflowAndRange)
{
    Piq piq(1);
    piq.push(0x1000);
    EXPECT_DEATH(piq.push(0x2000), "full");
    EXPECT_DEATH(piq.removeAt(1), "out of range");
}

TEST(Piq, UnprobedCountMatchesBruteForceRecount)
{
    // Randomized push/pop/remove/probe/flush script: the kept count of
    // unprobed entries always equals a recount over the queue.
    Piq piq(8);
    Rng rng(0x919);
    for (int step = 0; step < 20000; ++step) {
        std::uint64_t op = rng.below(20);
        if (op < 7 && !piq.full()) {
            piq.push(0x1000 + rng.below(64) * 32);
        } else if (op < 11 && !piq.empty()) {
            piq.markProbed(rng.below(piq.size()));
        } else if (op < 15 && !piq.empty()) {
            piq.popFront();
        } else if (op < 19 && !piq.empty()) {
            piq.removeAt(rng.below(piq.size()));
        } else if (op == 19) {
            piq.flush();
        }
        std::size_t recount = 0;
        for (std::size_t i = 0; i < piq.size(); ++i)
            recount += piq.at(i).probed() ? 0 : 1;
        ASSERT_EQ(piq.unprobed(), recount) << "step " << step;
    }
}
