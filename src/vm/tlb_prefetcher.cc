#include "vm/tlb_prefetcher.hh"

#include "common/logging.hh"
#include "frontend/ftq.hh"
#include "vm/mmu.hh"

namespace fdip
{

TlbPrefetcher::TlbPrefetcher(const Ftq &ftq_ref, Mmu &mmu_ref,
                             const Config &config)
    : ftq(ftq_ref), mmu(mmu_ref), cfg(config),
      recentVpns(cfg.filterEntries, invalidAddr)
{
    fatal_if(cfg.width == 0, "TLB-prefetch width must be nonzero");
    fatal_if(cfg.filterEntries == 0,
             "TLB-prefetch filter needs at least one entry");
    recentSet.reserve(cfg.filterEntries);
}

bool
TlbPrefetcher::recentlyProbed(Addr vpn) const
{
    return recentSet.count(vpn) != 0;
}

void
TlbPrefetcher::markProbed(Addr vpn)
{
    Addr evicted = recentVpns[recentNext];
    if (evicted != invalidAddr) {
        recentSet.erase(evicted);
        // The evicted page may be on an entry below the cursor.
        scanSeq = 0;
    }
    recentVpns[recentNext] = vpn;
    recentSet.insert(vpn);
    recentNext = (recentNext + 1) % recentVpns.size();
}

bool
TlbPrefetcher::atFixedPoint() const
{
    // Entry 0 is the fetch point (its translation is the demand
    // fetch's own walk); deeper entries are the lookahead.
    std::uint64_t head = ftq.headSeq();
    std::size_t i = scanSeq > head + 1 ? std::size_t(scanSeq - head) : 1;
    Addr prev = invalidAddr;
    for (; i < ftq.size(); ++i) {
        unsigned n_blocks = ftq.numCacheBlocks(i);
        for (unsigned k = 0; k < n_blocks; ++k) {
            Addr vpn = mmu.pageTable().vpn(ftq.cacheBlockAddr(i, k));
            if (vpn == prev)
                continue;
            if (!recentlyProbed(vpn)) {
                scanSeq = head + i;
                return false;
            }
            prev = vpn;
        }
    }
    scanSeq = head + ftq.size();
    return true;
}

void
TlbPrefetcher::tick(Cycle now)
{
    if (atFixedPoint())
        return;
    unsigned started = 0;
    // A scan from entry 1 would skip every entry below the cursor:
    // their pages are all filtered. The previous block's page is
    // filtered too, whether it was found there or probed just now.
    Addr prev = invalidAddr;
    for (std::size_t i = std::size_t(scanSeq - ftq.headSeq());
         i < ftq.size(); ++i) {
        unsigned n_blocks = ftq.numCacheBlocks(i);
        for (unsigned k = 0; k < n_blocks; ++k) {
            Addr vaddr = ftq.cacheBlockAddr(i, k);
            Addr vpn = mmu.pageTable().vpn(vaddr);
            if (vpn == prev)
                continue;
            prev = vpn;
            if (recentlyProbed(vpn))
                continue;
            markProbed(vpn);
            stProbes.inc();
            PfTranslation tr = mmu.tlbPrefetchTranslate(vaddr, now);
            if (tr.status == PfTranslation::Status::Ready) {
                stTlbHot.inc();
                continue;
            }
            stRequests.inc();
            if (++started >= cfg.width)
                return;
        }
    }
}

Cycle
TlbPrefetcher::nextEventCycle(Cycle now) const
{
    return atFixedPoint() ? kNever : now + 1;
}

} // namespace fdip
