/**
 * Component micro-benchmarks (google-benchmark): raw throughput of the
 * structures on the simulator's hot path. Not a paper experiment —
 * this guards simulation speed regressions.
 */

#include <benchmark/benchmark.h>

#include <bit>

#include "bpu/btb.hh"
#include "bpu/hybrid.hh"
#include "bpu/partitioned_btb.hh"
#include "frontend/ftq.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/mshr.hh"
#include "mem/prefetch_buffer.hh"
#include "prefetch/fdp.hh"
#include "trace/executor.hh"
#include "trace/profile.hh"
#include "trace/synth_builder.hh"
#include "vm/mmu.hh"
#include "vm/tlb_prefetcher.hh"

using namespace fdip;

static void
BM_CacheAccess(benchmark::State &state)
{
    Cache::Config cfg;
    cfg.sizeBytes = 16 * 1024;
    cfg.assoc = 2;
    cfg.blockBytes = 32;
    Cache cache(cfg);
    Addr addr = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        addr = (addr + 32) & 0xffff;
    }
}
BENCHMARK(BM_CacheAccess);

static void
BM_BtbLookup(benchmark::State &state)
{
    Btb::Config cfg;
    cfg.sets = 1024;
    cfg.ways = 4;
    Btb btb(cfg);
    for (Addr pc = 0x1000; pc < 0x1000 + 4096 * 4; pc += 16)
        btb.insert(pc, InstClass::Jump, pc + 64);
    Addr pc = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(btb.lookup(pc));
        pc = 0x1000 + ((pc + 16) & 0x3fff);
    }
}
BENCHMARK(BM_BtbLookup);

/**
 * Warm the FDIP-X BTB (2048-entry budget, four offset-width partitions,
 * 16-bit tags) with a branch every fifth instruction of @p span bytes
 * from @p base: mostly short offsets, some 13- and 23-bit ones and a
 * few indirects.
 */
static void
warmFdipXBtb(PartitionedBtb &pbtb, Addr base, Addr span)
{
    unsigned n = 0;
    for (Addr pc = base; pc < base + span; pc += 5 * instBytes, ++n) {
        switch (n % 16) {
          case 0: pbtb.insert(pc, InstClass::IndJump, base); break;
          case 1: pbtb.insert(pc, InstClass::Call, pc + 3000 * instBytes);
            break;
          case 2: pbtb.insert(pc, InstClass::Jump, pc - 200000 * instBytes);
            break;
          default: pbtb.insert(pc, InstClass::CondBr, pc + 40 * instBytes);
        }
    }
}

static void
BM_PartitionedBtbLookup(benchmark::State &state)
{
    // Each iteration probes all PCs of one 8-PC block of the warm
    // FDIP-X BTB; the walk visits hits and misses in every partition.
    PartitionedBtb pbtb(PartitionedBtb::makeDefaultConfig(2048));
    const Addr base = 0x400000;
    const Addr span = 64 * 1024;
    warmFdipXBtb(pbtb, base, span);
    Addr start = base;
    for (auto _ : state) {
        for (unsigned i = 0; i < 8; ++i)
            benchmark::DoNotOptimize(pbtb.lookup(start + i * instBytes));
        start = base + ((start - base + 8 * instBytes) & (span - 1));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartitionedBtbLookup);

static void
BM_BpuBlockBtb(benchmark::State &state)
{
    // The BPU's per-instruction front-end on one 8-PC block of the same
    // warm FDIP-X BTB as BM_PartitionedBtbLookup: probe only the PCs
    // the presence mask leaves set, in PC order, end the block at the
    // first hit, and count the proven misses in bulk.
    PartitionedBtb pbtb(PartitionedBtb::makeDefaultConfig(2048));
    const Addr base = 0x400000;
    const Addr span = 64 * 1024;
    warmFdipXBtb(pbtb, base, span);
    Addr start = base;
    for (auto _ : state) {
        std::uint32_t may_hit = pbtb.mayHitMask(start, 8);
        unsigned scanned = 8;
        for (std::uint32_t left = may_hit; left != 0; left &= left - 1) {
            unsigned i = unsigned(std::countr_zero(left));
            if (pbtb.lookup(start + i * instBytes)) {
                scanned = i + 1;
                break;
            }
        }
        std::uint32_t probed = may_hit & ((1u << scanned) - 1);
        pbtb.countMisses(scanned - unsigned(std::popcount(probed)));
        start = base + ((start - base + 8 * instBytes) & (span - 1));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BpuBlockBtb);

static void
BM_HybridPredict(benchmark::State &state)
{
    HybridPredictor pred;
    Addr pc = 0x1000;
    std::uint64_t hist = 0xdead;
    for (auto _ : state) {
        bool p = pred.predict(pc, hist);
        benchmark::DoNotOptimize(p);
        pred.update(pc, hist, !p);
        hist = shiftHistory(hist, p);
        pc += 4;
    }
}
BENCHMARK(BM_HybridPredict);

static void
BM_ExecutorThroughput(benchmark::State &state)
{
    const WorkloadProfile &p = findProfile("gcc");
    auto prog = buildProgram(p);
    SyntheticExecutor exec(*prog, p);
    for (auto _ : state)
        benchmark::DoNotOptimize(exec.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecutorThroughput);

static void
BM_FdpTick(benchmark::State &state)
{
    // fdp-remove behind a full FTQ: each cycle the fetch engine retires
    // the head entry and the BPU appends one, so the scan always has a
    // fresh entry at the tail and the PIQ, tag probes and MSHRs stay
    // busy, as on a long correct-path run.
    MemConfig mc;
    MemHierarchy mem(mc);
    Ftq ftq(32, mc.l1i.blockBytes);
    FdpPrefetcher::Config fc;
    fc.mode = CpfMode::Remove;
    FdpPrefetcher fdp(ftq, mem, fc);
    Addr pc = 0x10000;
    auto push = [&] {
        FetchBlock b;
        b.startPc = pc;
        b.numInsts = 6;
        b.validLen = 6;
        ftq.push(b);
        // Stride over a 64 KB footprint: L1 hits and misses both occur.
        pc = 0x10000 + ((pc - 0x10000 + 52 * instBytes) & 0xffff);
    };
    while (!ftq.full())
        push();
    Cycle now = 0;
    for (auto _ : state) {
        ++now;
        mem.tick(now);
        fdp.tick(now);
        benchmark::DoNotOptimize(fdp.nextEventCycle(now));
        ftq.popHead();
        push();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FdpTick);

static void
BM_TlbPrefetcherTick(benchmark::State &state)
{
    // The translation lookahead behind a full 32-entry FTQ that
    // rotates one entry a cycle: the fetch engine retires the head and
    // the BPU appends a block 208 bytes on, so a new page enters every
    // ~20 cycles and a 1 MB footprint keeps the 64-page filter
    // evicting.
    VmConfig vm;
    vm.enable = true;
    vm.pageBytes = 4096;
    vm.l2TlbEntries = 512;
    vm.l2TlbAssoc = 4;
    vm.numWalkers = 2;
    vm.prefetchPolicy = TlbPrefetchPolicy::Wait;
    const Addr base = 0x400000;
    const Addr span = 1 << 20;
    Mmu mmu(vm, base, base + span);
    Ftq ftq(32, 32);
    TlbPrefetcher pf(ftq, mmu, {});
    Addr pc = base;
    auto push = [&] {
        FetchBlock b;
        b.startPc = pc;
        b.numInsts = 6;
        b.validLen = 6;
        ftq.push(b);
        pc = base + ((pc - base + 52 * instBytes) & (span - 1));
    };
    while (!ftq.full())
        push();
    Cycle now = 0;
    for (auto _ : state) {
        ++now;
        mmu.tick(now);
        pf.tick(now);
        benchmark::DoNotOptimize(pf.nextEventCycle(now));
        ftq.popHead();
        push();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbPrefetcherTick);

static void
BM_MshrReady(benchmark::State &state)
{
    // Sixteen MSHRs, half of them in flight with staggered fills: most
    // cycles nothing arrives; every fourth one a fill lands and its
    // entry is reallocated, as the hierarchy's per-cycle drain sees.
    MshrFile mshrs(16);
    Cycle now = 0;
    Addr next = 0x1000;
    for (unsigned i = 0; i < 8; ++i) {
        mshrs.allocate(next, 4 * (i + 1), i % 2 == 0, FillDest::DemandL1);
        next += 32;
    }
    for (auto _ : state) {
        ++now;
        for (MshrEntry *e : mshrs.ready(now)) {
            mshrs.free(*e);
            mshrs.allocate(next, now + 32, true, FillDest::PrefetchBuffer);
            next += 32;
        }
        benchmark::DoNotOptimize(mshrs.full());
        benchmark::DoNotOptimize(mshrs.prefetchesInFlight());
        benchmark::DoNotOptimize(mshrs.nextReadyCycle());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MshrReady);

static void
BM_PrefetchBufferProbe(benchmark::State &state)
{
    // A full 32-entry buffer probed by every demand fetch; half the
    // probed blocks are resident.
    PrefetchBuffer pb(32);
    for (Addr a = 0; a < 32; ++a)
        pb.insert(0x1000 + a * 64);
    Addr addr = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pb.probe(addr));
        addr = 0x1000 + ((addr - 0x1000 + 32) & 0x7ff);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefetchBufferProbe);

BENCHMARK_MAIN();
