/** Tests for the fully-associative prefetch buffer. */

#include <algorithm>
#include <deque>
#include <optional>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "mem/prefetch_buffer.hh"

using namespace fdip;

TEST(PrefetchBuffer, InsertProbeConsume)
{
    PrefetchBuffer pb(4);
    pb.insert(0x1000);
    EXPECT_TRUE(pb.probe(0x1000));
    EXPECT_TRUE(pb.consume(0x1000));
    EXPECT_FALSE(pb.probe(0x1000)); // consumed entries leave
    EXPECT_FALSE(pb.consume(0x1000));
}

TEST(PrefetchBuffer, FifoEvictionWhenFull)
{
    PrefetchBuffer pb(2);
    pb.insert(0x1000);
    pb.insert(0x2000);
    pb.insert(0x3000); // evicts 0x1000 (oldest)
    EXPECT_FALSE(pb.probe(0x1000));
    EXPECT_TRUE(pb.probe(0x2000));
    EXPECT_TRUE(pb.probe(0x3000));
    EXPECT_EQ(pb.stats.counter("pfbuf.unused_evictions"), 1u);
}

TEST(PrefetchBuffer, DuplicateFillIgnored)
{
    PrefetchBuffer pb(4);
    pb.insert(0x1000);
    pb.insert(0x1000);
    EXPECT_EQ(pb.size(), 1u);
    EXPECT_EQ(pb.stats.counter("pfbuf.duplicate_fills"), 1u);
}

TEST(PrefetchBuffer, ConsumeCountsUseful)
{
    PrefetchBuffer pb(4);
    pb.insert(0x1000);
    pb.insert(0x2000);
    pb.consume(0x2000);
    EXPECT_EQ(pb.stats.counter("pfbuf.consumed"), 1u);
    EXPECT_EQ(pb.size(), 1u);
}

TEST(PrefetchBuffer, ClearFlushes)
{
    PrefetchBuffer pb(4);
    pb.insert(0x1000);
    pb.insert(0x2000);
    pb.clear();
    EXPECT_EQ(pb.size(), 0u);
    EXPECT_EQ(pb.stats.counter("pfbuf.flushed_entries"), 2u);
}

TEST(PrefetchBuffer, CapacityRespected)
{
    PrefetchBuffer pb(8);
    for (int i = 0; i < 20; ++i)
        pb.insert(0x1000 + i * 0x20);
    EXPECT_EQ(pb.size(), 8u);
    EXPECT_EQ(pb.capacity(), 8u);
}

TEST(PrefetchBufferDeath, ZeroEntries)
{
    EXPECT_DEATH({ PrefetchBuffer p(0); }, "at least one");
}

TEST(PrefetchBuffer, FifoOrderMatchesReferenceQueue)
{
    // Randomized insert/consume/clear script against a reference FIFO:
    // consuming from the middle keeps the survivors' age order, so
    // every eviction names the oldest unconsumed fill.
    PrefetchBuffer pb(5);
    std::deque<Addr> ref;
    Rng rng(0xb0f);
    for (int step = 0; step < 20000; ++step) {
        Addr a = 0x1000 + rng.below(16) * 32;
        std::uint64_t op = rng.below(20);
        if (op < 11) {
            std::optional<Addr> want;
            if (std::find(ref.begin(), ref.end(), a) == ref.end()) {
                if (ref.size() == pb.capacity()) {
                    want = ref.front();
                    ref.pop_front();
                }
                ref.push_back(a);
            }
            ASSERT_EQ(pb.insert(a), want) << "step " << step;
        } else if (op < 19) {
            auto it = std::find(ref.begin(), ref.end(), a);
            bool present = it != ref.end();
            if (present)
                ref.erase(it);
            ASSERT_EQ(pb.consume(a), present) << "step " << step;
        } else if (rng.chance(0.2)) {
            pb.clear();
            ref.clear();
        }
        ASSERT_EQ(pb.size(), ref.size()) << "step " << step;
        for (unsigned k = 0; k < 16; ++k) {
            Addr b = 0x1000 + k * 32;
            bool in_ref = std::find(ref.begin(), ref.end(), b) != ref.end();
            ASSERT_EQ(pb.probe(b), in_ref) << "step " << step;
        }
    }
}
