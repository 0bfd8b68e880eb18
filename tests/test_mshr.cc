/** Tests for the MSHR file. */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "mem/mshr.hh"

using namespace fdip;

TEST(Mshr, AllocateAndFind)
{
    MshrFile m(4);
    MshrEntry *e = m.allocate(0x1000, 50, false, FillDest::DemandL1);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(m.find(0x1000), e);
    EXPECT_EQ(m.find(0x2000), nullptr);
    EXPECT_EQ(m.inUse(), 1u);
}

TEST(Mshr, FullRejectsAllocation)
{
    MshrFile m(2);
    EXPECT_NE(m.allocate(0x1000, 1, false, FillDest::DemandL1), nullptr);
    EXPECT_NE(m.allocate(0x2000, 1, false, FillDest::DemandL1), nullptr);
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.allocate(0x3000, 1, false, FillDest::DemandL1), nullptr);
    EXPECT_EQ(m.stats.counter("mshr.alloc_failures"), 1u);
}

TEST(Mshr, FreeMakesRoom)
{
    MshrFile m(1);
    MshrEntry *e = m.allocate(0x1000, 1, false, FillDest::DemandL1);
    m.free(*e);
    EXPECT_FALSE(m.full());
    EXPECT_EQ(m.find(0x1000), nullptr);
    EXPECT_NE(m.allocate(0x2000, 1, false, FillDest::DemandL1), nullptr);
}

TEST(Mshr, PrefetchesCountedSeparately)
{
    MshrFile m(4);
    m.allocate(0x1000, 1, true, FillDest::PrefetchBuffer);
    m.allocate(0x2000, 1, true, FillDest::PrefetchBuffer);
    m.allocate(0x3000, 1, false, FillDest::DemandL1);
    EXPECT_EQ(m.prefetchesInFlight(), 2u);
    EXPECT_EQ(m.inUse(), 3u);
}

TEST(Mshr, ReadyCollectsCompletedOnly)
{
    MshrFile m(4);
    m.allocate(0x1000, 10, false, FillDest::DemandL1);
    m.allocate(0x2000, 20, false, FillDest::DemandL1);
    auto ready = m.ready(15);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0]->blockAddr, 0x1000u);
    // At t=20 both are ready.
    EXPECT_EQ(m.ready(20).size(), 2u);
}

TEST(Mshr, ClearDropsEverything)
{
    MshrFile m(4);
    m.allocate(0x1000, 1, false, FillDest::DemandL1);
    m.clear();
    EXPECT_EQ(m.inUse(), 0u);
    EXPECT_EQ(m.find(0x1000), nullptr);
}

TEST(MshrDeath, DuplicateAllocation)
{
    MshrFile m(4);
    m.allocate(0x1000, 1, false, FillDest::DemandL1);
    EXPECT_DEATH(m.allocate(0x1000, 2, false, FillDest::DemandL1),
                 "duplicate");
}

TEST(MshrDeath, DoubleFree)
{
    MshrFile m(2);
    MshrEntry *e = m.allocate(0x1000, 1, false, FillDest::DemandL1);
    m.free(*e);
    EXPECT_DEATH(m.free(*e), "invalid");
}

TEST(Mshr, KeptOccupancyMatchesBruteForceRecount)
{
    // Randomized allocate/free/clear script against a reference list:
    // inUse, prefetchesInFlight, full, nextReadyCycle and ready(now)
    // always equal a recount over the live entries.
    struct Ref
    {
        Addr addr;
        Cycle readyAt;
        bool isPrefetch;
    };
    MshrFile m(6);
    std::vector<Ref> ref;
    Rng rng(0x5a0);
    Cycle now = 0;
    for (int step = 0; step < 20000; ++step) {
        now += rng.below(3);
        std::uint64_t op = rng.below(20);
        if (op < 9) {
            Addr a = 0x1000 + rng.below(32) * 32;
            bool dup = std::any_of(ref.begin(), ref.end(),
                                   [&](const Ref &r) { return r.addr == a; });
            if (!dup) {
                Cycle ready = now + rng.below(40);
                bool pf = rng.chance(0.5);
                MshrEntry *e = m.allocate(a, ready, pf, FillDest::DemandL1);
                ASSERT_EQ(e != nullptr, ref.size() < m.capacity());
                if (e != nullptr)
                    ref.push_back({a, ready, pf});
            }
        } else if (op < 18 && !ref.empty()) {
            std::size_t k = rng.below(ref.size());
            m.free(*m.find(ref[k].addr));
            ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(k));
        } else if (op == 18) {
            // Drain whatever has arrived, as MemHierarchy::tick does.
            for (MshrEntry *e : m.ready(now))
                m.free(*e);
            std::erase_if(ref, [&](const Ref &r) { return r.readyAt <= now; });
        } else if (op == 19 && rng.chance(0.1)) {
            m.clear();
            ref.clear();
        }

        unsigned pf = 0;
        Cycle earliest = kNever;
        std::vector<Addr> arrived;
        for (const Ref &r : ref) {
            pf += r.isPrefetch ? 1 : 0;
            earliest = std::min(earliest, r.readyAt);
            if (r.readyAt <= now)
                arrived.push_back(r.addr);
        }
        ASSERT_EQ(m.inUse(), ref.size()) << "step " << step;
        ASSERT_EQ(m.prefetchesInFlight(), pf) << "step " << step;
        ASSERT_EQ(m.full(), ref.size() == m.capacity()) << "step " << step;
        ASSERT_EQ(m.nextReadyCycle(), earliest) << "step " << step;
        std::vector<Addr> got;
        for (MshrEntry *e : m.ready(now))
            got.push_back(e->blockAddr);
        std::sort(got.begin(), got.end());
        std::sort(arrived.begin(), arrived.end());
        ASSERT_EQ(got, arrived) << "step " << step;
    }
}
