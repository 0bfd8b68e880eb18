#include "mem/prefetch_buffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fdip
{

PrefetchBuffer::PrefetchBuffer(unsigned entries)
    : cap(entries)
{
    fatal_if(entries == 0, "prefetch buffer needs at least one entry");
    buf.reserve(entries);
}

bool
PrefetchBuffer::probe(Addr block_addr) const
{
    return std::find(buf.begin(), buf.end(), block_addr) != buf.end();
}

bool
PrefetchBuffer::consume(Addr block_addr)
{
    auto it = std::find(buf.begin(), buf.end(), block_addr);
    if (it == buf.end())
        return false;
    buf.erase(it);
    stConsumed.inc();
    return true;
}

std::optional<Addr>
PrefetchBuffer::insert(Addr block_addr)
{
    if (probe(block_addr)) {
        stDuplicateFills.inc();
        return std::nullopt;
    }
    std::optional<Addr> evicted;
    if (buf.size() == cap) {
        evicted = buf.front();
        buf.erase(buf.begin());
        stUnusedEvictions.inc();
    }
    buf.push_back(block_addr);
    stFills.inc();
    return evicted;
}

void
PrefetchBuffer::clear()
{
    stFlushedEntries.inc(buf.size());
    buf.clear();
}

} // namespace fdip
