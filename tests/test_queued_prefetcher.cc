/**
 * Contract tests for the shared queued-prefetcher base, run against
 * every scheme built on it (NLP, MANA): dedup, drop-oldest at
 * capacity, head retention on a resource stall, and head-of-line
 * page-walk charging that matches per-cycle ticking. Also covers the
 * recent-address filter shared by FDP, the oracle and shadow-BTB.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "prefetch/mana.hh"
#include "prefetch/nlp.hh"
#include "prefetch/recent_filter.hh"
#include "vm/mmu.hh"

using namespace fdip;

namespace
{

constexpr unsigned kBlockBytes = 32;
constexpr Addr kBase = 0x4000;
/** A region MANA has no record of: entering it replays nothing. */
constexpr Addr kNeutral = 0x80000;
constexpr unsigned kCandidates = 8;

/** The k-th candidate a scheme is driven to queue: the odd blocks
 *  from kBase, so candidate k's block-aligned predecessor is free to
 *  act as NLP's trigger and MANA's region entry point. */
Addr
candidate(unsigned k)
{
    return kBase + Addr(2 * k + 1) * kBlockBytes;
}

MemConfig
memCfg()
{
    MemConfig c;
    c.l1i.sizeBytes = 4096;
    c.l1i.assoc = 2;
    c.l1i.blockBytes = kBlockBytes;
    c.l2.sizeBytes = 64 * 1024;
    c.l2.assoc = 4;
    c.l2.blockBytes = kBlockBytes;
    return c;
}

FetchAccess
access(bool hit)
{
    FetchAccess a;
    a.hitL1 = hit;
    a.readyAt = hit ? 1 : 100;
    return a;
}

std::unique_ptr<QueuedPrefetcher>
makeNlp(MemHierarchy &mem, std::size_t queue_entries)
{
    NlpPrefetcher::Config c;
    c.queueEntries = queue_entries;
    return std::make_unique<NlpPrefetcher>(mem, c);
}

/** A miss on candidate(k)'s predecessor queues candidate(k). */
void
pushNlp(QueuedPrefetcher &pf, unsigned k)
{
    pf.onDemandAccess(candidate(k) - kBlockBytes, access(false), 1);
}

/** Two-block regions, so candidate(k) is block 1 of region k; every
 *  region is taught a footprint holding just that block. */
std::unique_ptr<QueuedPrefetcher>
makeMana(MemHierarchy &mem, std::size_t queue_entries)
{
    ManaPrefetcher::Config c;
    c.regionBlocks = 2;
    c.queueEntries = queue_entries;
    c.chainLength = 1;
    auto pf = std::make_unique<ManaPrefetcher>(mem, c);
    for (unsigned k = 0; k < kCandidates; ++k)
        pf->onDemandAccess(candidate(k), access(false), 1);
    pf->onDemandAccess(kNeutral, access(true), 1); // records the last
    EXPECT_EQ(pf->nextEventCycle(1), kNever); // nothing replayed yet
    return pf;
}

/** Re-entering region k through block 0 replays candidate(k). */
void
pushMana(QueuedPrefetcher &pf, unsigned k)
{
    pf.onDemandAccess(kNeutral, access(true), 1);
    pf.onDemandAccess(candidate(k) - kBlockBytes, access(true), 1);
}

struct Scheme
{
    const char *name;
    std::unique_ptr<QueuedPrefetcher> (*make)(MemHierarchy &,
                                              std::size_t);
    /** Make the scheme's trigger logic queue exactly candidate(k). */
    void (*push)(QueuedPrefetcher &, unsigned);
    /** Counter a drop-oldest bumps; nullptr: the scheme counts none. */
    const char *dropStat;
};

class QueuedContract : public ::testing::TestWithParam<Scheme>
{
  protected:
    std::uint64_t
    counter(const QueuedPrefetcher &pf, const std::string &suffix) const
    {
        return pf.stats.counter(std::string(GetParam().name) + "." +
                                suffix);
    }

    void
    drain(MemHierarchy &mem, QueuedPrefetcher &pf)
    {
        for (Cycle t = 1; t <= 600; ++t) {
            mem.tick(t);
            pf.tick(t);
        }
    }
};

} // namespace

TEST_P(QueuedContract, QueuedCandidateIsNotQueuedTwice)
{
    MemHierarchy mem(memCfg());
    auto pf = GetParam().make(mem, 8);
    GetParam().push(*pf, 0);
    GetParam().push(*pf, 0);
    GetParam().push(*pf, 1);

    // A second copy of candidate 0 would issue as redundant.
    drain(mem, *pf);
    EXPECT_EQ(counter(*pf, "issued"), 2u);
    EXPECT_EQ(counter(*pf, "redundant"), 0u);
}

TEST_P(QueuedContract, FullQueueDropsItsOldestCandidate)
{
    MemHierarchy mem(memCfg());
    auto pf = GetParam().make(mem, 2);
    for (unsigned k = 0; k < 3; ++k)
        GetParam().push(*pf, k);
    if (GetParam().dropStat != nullptr) {
        EXPECT_EQ(pf->stats.counter(GetParam().dropStat), 1u);
    } else {
        for (const auto &[name, value] : pf->stats.entries())
            EXPECT_EQ(name.find("drop"), std::string::npos) << name;
    }

    drain(mem, *pf);
    EXPECT_EQ(counter(*pf, "issued"), 2u);
    EXPECT_FALSE(mem.pfBuffer().probe(candidate(0)));
    EXPECT_TRUE(mem.pfBuffer().probe(candidate(1)));
    EXPECT_TRUE(mem.pfBuffer().probe(candidate(2)));
}

TEST_P(QueuedContract, NoResourceKeepsTheHeadAndCountsAStall)
{
    MemHierarchy mem(memCfg());
    auto pf = GetParam().make(mem, 8);
    mem.setMaxOutstandingPrefetches(0); // every issue is NoResource
    GetParam().push(*pf, 0);
    mem.tick(1);
    pf->tick(1);
    EXPECT_EQ(counter(*pf, "issue_stalls"), 1u);
    EXPECT_EQ(counter(*pf, "issued"), 0u);
    EXPECT_EQ(pf->nextEventCycle(1), 2u); // the head retries next cycle

    mem.setMaxOutstandingPrefetches(8);
    mem.tick(2);
    pf->tick(2);
    EXPECT_EQ(counter(*pf, "issue_stalls"), 1u);
    EXPECT_EQ(counter(*pf, "issued"), 1u);
    EXPECT_EQ(pf->nextEventCycle(2), kNever); // queue drained
    EXPECT_NE(mem.mshrs().find(candidate(0)), nullptr);
}

TEST_P(QueuedContract, HeadOfLineWalkChargesLikeTicking)
{
    // Two identical machines with the head parked on a page walk: one
    // ticks through the quiescent window, the other is charged for it
    // in bulk. Both must end with the same counters.
    VmConfig vcfg;
    vcfg.enable = true;
    vcfg.itlbEntries = 4;
    vcfg.itlbAssoc = 4;
    vcfg.walkLatency = 25;
    vcfg.prefetchPolicy = TlbPrefetchPolicy::Wait;
    MemHierarchy mem_ticked(memCfg()), mem_charged(memCfg());
    Mmu mmu_ticked(vcfg, 0x0, 0x100000), mmu_charged(vcfg, 0x0, 0x100000);
    auto ticked = GetParam().make(mem_ticked, 8);
    auto charged = GetParam().make(mem_charged, 8);
    ticked->setMmu(&mmu_ticked);
    charged->setMmu(&mmu_charged);

    const Cycle now = 9;
    for (QueuedPrefetcher *pf : {ticked.get(), charged.get()}) {
        GetParam().push(*pf, 0);
        pf->tick(now); // cold ITLB: the walk starts, the head waits
        ASSERT_EQ(counter(*pf, "tlb_wait_stalls"), 1u);
    }
    Cycle wake = ticked->nextEventCycle(now);
    ASSERT_EQ(wake, now + vcfg.walkLatency);
    ASSERT_EQ(charged->nextEventCycle(now), wake);

    const Cycle window = wake - now - 1;
    for (Cycle t = now + 1; t < wake; ++t) {
        mmu_ticked.tick(t);
        ticked->tick(t);
    }
    charged->chargeIdleCycles(now + 1, window);
    EXPECT_EQ(counter(*ticked, "tlb_wait_stalls"), 1 + window);
    EXPECT_EQ(counter(*charged, "tlb_wait_stalls"), 1 + window);

    // The walk completes at the wake cycle and both issue alike.
    for (auto [mem, mmu, pf] :
         {std::tuple{&mem_ticked, &mmu_ticked, ticked.get()},
          std::tuple{&mem_charged, &mmu_charged, charged.get()}}) {
        mmu->tick(wake);
        mem->tick(wake);
        pf->tick(wake);
        EXPECT_EQ(counter(*pf, "issued"), 1u);
    }
    EXPECT_EQ(ticked->stats.entries(), charged->stats.entries());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, QueuedContract,
    ::testing::Values(Scheme{"nlp", makeNlp, pushNlp, nullptr},
                      Scheme{"mana", makeMana, pushMana,
                             "mana.queue_drops"}),
    [](const ::testing::TestParamInfo<Scheme> &info) {
        return std::string(info.param.name);
    });

TEST(RecentFilter, ZeroCapacityNeverMatches)
{
    RecentFilter f(0);
    EXPECT_FALSE(f.contains(0x40));
    f.insert(0x40);
    EXPECT_FALSE(f.contains(0x40));
    EXPECT_FALSE(f.contains(invalidAddr));
}

TEST(RecentFilter, WrapAroundEvictsTheOldest)
{
    RecentFilter f(3);
    for (Addr a : {0x20, 0x40, 0x60})
        f.insert(a);
    EXPECT_TRUE(f.contains(0x20));
    EXPECT_TRUE(f.contains(0x40));
    EXPECT_TRUE(f.contains(0x60));

    f.insert(0x80); // overwrites 0x20, the oldest
    EXPECT_FALSE(f.contains(0x20));
    EXPECT_TRUE(f.contains(0x40));
    EXPECT_TRUE(f.contains(0x80));

    f.insert(0xa0); // then 0x40
    EXPECT_FALSE(f.contains(0x40));
    EXPECT_TRUE(f.contains(0x60));
    EXPECT_TRUE(f.contains(0xa0));
}
