#include "mem/mshr.hh"

#include "common/logging.hh"

namespace fdip
{

MshrFile::MshrFile(unsigned n)
    : entries(n)
{
    fatal_if(n == 0, "MSHR file needs at least one entry");
}

MshrEntry *
MshrFile::find(Addr block_addr)
{
    for (auto &e : entries) {
        if (e.valid && e.blockAddr == block_addr)
            return &e;
    }
    return nullptr;
}

const MshrEntry *
MshrFile::find(Addr block_addr) const
{
    return const_cast<MshrFile *>(this)->find(block_addr);
}

MshrEntry *
MshrFile::allocate(Addr block_addr, Cycle ready_at, bool is_prefetch,
                   FillDest dest)
{
    panic_if(find(block_addr) != nullptr,
             "duplicate MSHR allocation for %#llx",
             static_cast<unsigned long long>(block_addr));
    for (auto &e : entries) {
        if (!e.valid) {
            e.valid = true;
            e.blockAddr = block_addr;
            e.readyAt = ready_at;
            e.isPrefetch = is_prefetch;
            e.fillL2 = false;
            e.dest = dest;
            e.streamId = 0;
            e.slotId = 0;
            ++inUse_;
            if (is_prefetch)
                ++prefetchesInFlight_;
            if (ready_at < earliestReady)
                earliestReady = ready_at;
            stAllocations.inc();
            return &e;
        }
    }
    stAllocFailures.inc();
    return nullptr;
}

void
MshrFile::free(MshrEntry &entry)
{
    panic_if(!entry.valid, "freeing invalid MSHR entry");
    entry.valid = false;
    --inUse_;
    if (entry.isPrefetch)
        --prefetchesInFlight_;
    if (entry.readyAt == earliestReady)
        recomputeEarliestReady();
}

void
MshrFile::recomputeEarliestReady()
{
    earliestReady = kNever;
    for (const auto &e : entries) {
        if (e.valid && e.readyAt < earliestReady)
            earliestReady = e.readyAt;
    }
}

std::vector<MshrEntry *>
MshrFile::ready(Cycle now)
{
    std::vector<MshrEntry *> out;
    if (now < earliestReady)
        return out;
    for (auto &e : entries) {
        if (e.valid && e.readyAt <= now)
            out.push_back(&e);
    }
    return out;
}

void
MshrFile::clear()
{
    for (auto &e : entries)
        e.valid = false;
    inUse_ = 0;
    prefetchesInFlight_ = 0;
    earliestReady = kNever;
}

} // namespace fdip
