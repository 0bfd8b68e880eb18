/**
 * @file recent_filter.hh
 * Ring of the last N block addresses a prefetcher requested (FDP,
 * oracle) or scanned (shadow-BTB), used to suppress repeats. Each
 * insert() overwrites the oldest slot. A capacity of 0 disables the
 * filter: contains() never matches and insert() does nothing.
 */

#ifndef FDIP_PREFETCH_RECENT_FILTER_HH
#define FDIP_PREFETCH_RECENT_FILTER_HH

#include <algorithm>
#include <vector>

#include "common/types.hh"

namespace fdip
{

class RecentFilter
{
  public:
    explicit RecentFilter(std::size_t capacity) : ring(capacity, invalidAddr)
    {}

    bool
    contains(Addr addr) const
    {
        return std::find(ring.begin(), ring.end(), addr) != ring.end();
    }

    void
    insert(Addr addr)
    {
        if (ring.empty())
            return;
        ring[next] = addr;
        next = (next + 1) % ring.size();
    }

  private:
    std::vector<Addr> ring;
    std::size_t next = 0;
};

} // namespace fdip

#endif // FDIP_PREFETCH_RECENT_FILTER_HH
