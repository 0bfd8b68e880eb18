/** Tests for the fetch-directed prefetcher and its CPF variants. */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "frontend/ftq.hh"
#include "mem/hierarchy.hh"
#include "prefetch/fdp.hh"

using namespace fdip;

namespace
{

struct Rig
{
    MemHierarchy mem;
    Ftq ftq;

    Rig()
        : mem(makeCfg()), ftq(16, 32)
    {}

    static MemConfig
    makeCfg()
    {
        MemConfig c;
        c.l1i.sizeBytes = 4096;
        c.l1i.assoc = 2;
        c.l1i.blockBytes = 32;
        c.l2.sizeBytes = 64 * 1024;
        c.l2.assoc = 4;
        c.l2.blockBytes = 32;
        c.l1TagPorts = 2;
        return c;
    }

    void
    pushBlock(Addr pc, unsigned n = 8)
    {
        FetchBlock b;
        b.startPc = pc;
        b.numInsts = n;
        b.validLen = n;
        ftq.push(b);
    }

    FdpPrefetcher
    makeFdp(CpfMode mode)
    {
        FdpPrefetcher::Config c;
        c.mode = mode;
        return FdpPrefetcher(ftq, mem, c);
    }
};

} // namespace

TEST(Fdp, ScansBeyondFetchPointOnly)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::None);
    rig.pushBlock(0x1000); // entry 0 = fetch point: not scanned
    rig.mem.tick(1);
    fdp.tick(1);
    EXPECT_EQ(fdp.piq().size(), 0u);

    rig.pushBlock(0x2000); // entry 1: scanned
    rig.mem.tick(2);
    fdp.tick(2); // scan enqueues the candidate
    EXPECT_EQ(fdp.piq().size(), 1u);
    EXPECT_EQ(fdp.stats.counter("fdp.candidates"), 1u);
    rig.mem.tick(3);
    fdp.tick(3); // issue happens the next cycle
    EXPECT_EQ(fdp.piq().size(), 0u);
    EXPECT_GT(rig.mem.stats.counter("mem.prefetches_issued"), 0u);
}

TEST(Fdp, NoFilterPrefetchesCachedBlocksToo)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::None);
    rig.mem.l1i().insert(0x2000); // candidate already cached
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.mem.tick(1);
    fdp.tick(1);
    // Without CPF the cached block is still enqueued (waste).
    EXPECT_EQ(fdp.stats.counter("fdp.candidates"), 1u);
    EXPECT_EQ(fdp.stats.counter("fdp.cpf_probes"), 0u);
}

TEST(Fdp, IdealCpfFiltersCachedBlocks)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::Ideal);
    rig.mem.l1i().insert(0x2000);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000); // cached: must be filtered
    rig.pushBlock(0x3000); // not cached: must survive
    rig.mem.tick(1);
    fdp.tick(1); // scan: filter 0x2000, enqueue 0x3000
    EXPECT_EQ(fdp.stats.counter("fdp.cpf_filtered"), 1u);
    rig.mem.tick(2);
    fdp.tick(2); // issue the survivor
    EXPECT_EQ(rig.mem.stats.counter("mem.prefetches_issued"), 1u);
    EXPECT_TRUE(rig.mem.mshrs().find(0x3000) != nullptr);
    EXPECT_TRUE(rig.mem.mshrs().find(0x2000) == nullptr);
}

TEST(Fdp, EnqueueCpfNeedsIdleTagPort)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::Enqueue);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.mem.tick(1);
    // Exhaust both tag ports (as a busy fetch engine would).
    rig.mem.reserveTagPort();
    rig.mem.reserveTagPort();
    fdp.tick(1);
    EXPECT_EQ(fdp.stats.counter("fdp.enqueue_no_port"), 1u);
    EXPECT_EQ(fdp.piq().size(), 0u);
    // Next cycle a port is free: the candidate goes through.
    rig.mem.tick(2);
    fdp.tick(2);
    EXPECT_EQ(fdp.stats.counter("fdp.cpf_probes"), 1u);
}

TEST(Fdp, RemoveCpfProbesWaitingEntries)
{
    Rig rig;
    FdpPrefetcher::Config c;
    c.mode = CpfMode::Remove;
    c.issueWidth = 1;
    FdpPrefetcher fdp(rig.ftq, rig.mem, c);

    rig.mem.l1i().insert(0x3000); // will be enqueued then removed
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.pushBlock(0x3000);
    rig.mem.tick(1);
    fdp.tick(1);
    // Both candidates enqueued; one issued (issueWidth 1); remove-CPF
    // probes the remaining entries with idle ports over the cycles.
    rig.mem.tick(2);
    fdp.tick(2);
    EXPECT_GE(fdp.stats.counter("fdp.cpf_probes"), 1u);
    EXPECT_EQ(fdp.stats.counter("fdp.cpf_filtered"), 1u);
    // The cached block must never be issued.
    EXPECT_EQ(rig.mem.mshrs().find(0x3000), nullptr);
}

TEST(Fdp, DedupAcrossScans)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::None);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.pushBlock(0x2000); // same block again
    rig.mem.tick(1);
    fdp.tick(1);
    rig.mem.tick(2);
    fdp.tick(2);
    EXPECT_GE(fdp.stats.counter("fdp.dedup_dropped"), 1u);
    EXPECT_EQ(rig.mem.stats.counter("mem.prefetches_issued"), 1u);
}

TEST(Fdp, MultiBlockEntryYieldsAllBlocks)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::None);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2010, 8); // straddles 0x2000 and 0x2020
    rig.mem.tick(1);
    fdp.tick(1);
    EXPECT_EQ(fdp.stats.counter("fdp.candidates"), 2u);
}

TEST(Fdp, RedirectFlushesPiq)
{
    Rig rig;
    FdpPrefetcher::Config c;
    c.mode = CpfMode::None;
    c.issueWidth = 1;
    c.scanWidth = 4;
    FdpPrefetcher fdp(rig.ftq, rig.mem, c);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.pushBlock(0x3000);
    rig.pushBlock(0x4000);
    rig.mem.tick(1);
    fdp.tick(1); // 3 candidates enqueued, 1 issued, 2 remain
    EXPECT_GT(fdp.piq().size(), 0u);
    fdp.onRedirect(1);
    EXPECT_EQ(fdp.piq().size(), 0u);
}

TEST(Fdp, IssueRespectsBusOccupancy)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::None);
    // Saturate the L2 bus with a demand transfer.
    rig.mem.l2Bus().transfer(1, 3200); // long transfer
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.mem.tick(1);
    fdp.tick(1);
    EXPECT_EQ(rig.mem.stats.counter("mem.prefetches_issued"), 0u);
    EXPECT_GT(fdp.piq().size(), 0u); // candidate waits in the PIQ
}

TEST(Fdp, NamesIncludeMode)
{
    Rig rig;
    EXPECT_EQ(rig.makeFdp(CpfMode::None).name(), "fdp-none");
    EXPECT_EQ(rig.makeFdp(CpfMode::Ideal).name(), "fdp-ideal");
    EXPECT_EQ(rig.makeFdp(CpfMode::Remove).name(), "fdp-remove");
    EXPECT_EQ(rig.makeFdp(CpfMode::Enqueue).name(), "fdp-enqueue");
    EXPECT_EQ(rig.makeFdp(CpfMode::EnqueueAggressive).name(),
              "fdp-enqueue-aggr");
}

TEST(Fdp, AggressiveEnqueuesUnprobedWithoutPort)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::EnqueueAggressive);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.mem.tick(1);
    rig.mem.reserveTagPort();
    rig.mem.reserveTagPort(); // all ports gone
    fdp.tick(1);
    // Unlike the conservative variant, the candidate still enters the
    // PIQ (unprobed).
    EXPECT_EQ(fdp.stats.counter("fdp.enqueue_no_port"), 1u);
    EXPECT_EQ(fdp.piq().size(), 1u);
}

TEST(Fdp, FillIntoL1AblationSkipsBuffer)
{
    Rig rig;
    FdpPrefetcher::Config c;
    c.mode = CpfMode::None;
    c.fillIntoL1 = true;
    FdpPrefetcher fdp(rig.ftq, rig.mem, c);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.mem.tick(1);
    fdp.tick(1); // enqueue
    rig.mem.tick(2);
    fdp.tick(2); // issue
    MshrEntry *e = rig.mem.mshrs().find(0x2000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->dest, FillDest::DemandL1);
    // Drain the fill: the block lands in the L1, not the buffer.
    for (Cycle t = 3; t < 200; ++t)
        rig.mem.tick(t);
    EXPECT_TRUE(rig.mem.l1i().probe(0x2000));
    EXPECT_FALSE(rig.mem.pfBuffer().probe(0x2000));
}

namespace
{

/** Reference scan: the per-entry progress a full rescan from entry 1
 *  reaches after consuming @p n more blocks from @p state. */
std::vector<unsigned>
rescanAdvance(const Ftq &ftq, std::vector<unsigned> state, std::uint64_t n)
{
    for (std::size_t i = 1; i < ftq.size() && n > 0; ++i) {
        while (state[i] < ftq.numCacheBlocks(i) && n > 0) {
            ++state[i];
            --n;
        }
    }
    EXPECT_EQ(n, 0u) << "scan examined blocks a rescan cannot find";
    return state;
}

std::vector<unsigned>
scanState(const Ftq &ftq)
{
    std::vector<unsigned> s;
    for (std::size_t i = 0; i < ftq.size(); ++i)
        s.push_back(ftq.at(i).nextScanBlock);
    return s;
}

class FdpCursor : public ::testing::TestWithParam<CpfMode>
{};

} // namespace

TEST_P(FdpCursor, CandidateStreamMatchesFullRescan)
{
    // Randomized push/pop/flush script. Each cycle the cursor scan
    // must consume exactly the blocks a full rescan from entry 1 would
    // visit next, in order; it may stop short of its width only on a
    // full PIQ (or, for conservative enqueue-CPF, a missing tag port),
    // and nextEventCycle() must see any unscanned block it left.
    Rig rig;
    FdpPrefetcher::Config c;
    c.mode = GetParam();
    c.scanWidth = 3;
    c.piqEntries = 6;
    FdpPrefetcher fdp(rig.ftq, rig.mem, c);
    Rng rng(0xcafe + static_cast<unsigned>(GetParam()));
    std::uint64_t consumed = 0;
    for (Cycle t = 1; t < 6000; ++t) {
        for (int k = static_cast<int>(rng.below(3)); k > 0; --k) {
            if (!rig.ftq.full()) {
                rig.pushBlock(0x4000 + rng.below(512) * instBytes,
                              static_cast<unsigned>(rng.range(1, 16)));
            }
        }
        if (!rig.ftq.empty() && rng.chance(0.4))
            rig.ftq.popHead();
        if (rng.chance(0.02)) {
            rig.ftq.flush();
            fdp.onRedirect(t);
        }

        rig.mem.tick(t);
        if (rng.chance(0.3))
            rig.mem.reserveTagPort(); // a demand fetch took a port
        std::vector<unsigned> before = scanState(rig.ftq);
        std::uint64_t unscanned = 0;
        for (std::size_t i = 1; i < rig.ftq.size(); ++i)
            unscanned += rig.ftq.numCacheBlocks(i) - before[i];
        std::uint64_t cands = fdp.stats.counter("fdp.candidates");
        std::uint64_t no_port = fdp.stats.counter("fdp.enqueue_no_port");
        fdp.tick(t);
        std::uint64_t examined = fdp.stats.counter("fdp.candidates") - cands;
        // Conservative enqueue-CPF examines a candidate it then leaves
        // unscanned when no tag port is idle.
        if (c.mode == CpfMode::Enqueue)
            examined -= fdp.stats.counter("fdp.enqueue_no_port") - no_port;
        consumed += examined;

        std::vector<unsigned> after = scanState(rig.ftq);
        ASSERT_EQ(after, rescanAdvance(rig.ftq, before, examined))
            << "cycle " << t;
        if (examined < std::min<std::uint64_t>(c.scanWidth, unscanned) &&
            c.mode != CpfMode::Enqueue) {
            ASSERT_TRUE(fdp.piq().full()) << "cycle " << t;
        }
        bool left = false;
        for (std::size_t i = 1; i < rig.ftq.size(); ++i)
            left |= after[i] < rig.ftq.numCacheBlocks(i);
        if (left && !fdp.piq().full()) {
            ASSERT_EQ(fdp.nextEventCycle(t), t + 1) << "cycle " << t;
        }
        if (!left && fdp.piq().empty()) {
            ASSERT_EQ(fdp.nextEventCycle(t), kNever) << "cycle " << t;
        }
    }
    EXPECT_GT(consumed, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCpfModes, FdpCursor,
    ::testing::Values(CpfMode::None, CpfMode::Enqueue,
                      CpfMode::EnqueueAggressive, CpfMode::Remove,
                      CpfMode::Ideal),
    [](const ::testing::TestParamInfo<CpfMode> &info) {
        std::string n = cpfModeName(info.param);
        for (char &ch : n) {
            if (ch == '-')
                ch = '_';
        }
        return n;
    });
