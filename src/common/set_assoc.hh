/**
 * @file set_assoc.hh
 * Storage and stamp-LRU replacement for a set-associative table. The
 * L1-I/L2 cache tags, BTB, FTB, ITLB, L2 TLB and MANA table are all
 * built on it: each owner computes its own set index and tag and
 * keeps its payload in an Entry derived from SetAssocEntry, and the
 * table finds, stamps and picks victims.
 *
 * Replacement: touch() gives an entry the next value of the table's
 * clock, and victim() returns the set's first invalid way, else the
 * first way holding the smallest stamp. An invalidated entry keeps its
 * stale stamp; it is still refilled first because it is invalid.
 *
 * Header-only so the hot BTB, FTB and L1-I lookup loops still inline.
 */

#ifndef FDIP_COMMON_SET_ASSOC_HH
#define FDIP_COMMON_SET_ASSOC_HH

#include <cstdint>
#include <type_traits>
#include <vector>

namespace fdip
{

struct SetAssocEntry
{
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t lruStamp = 0;
};

template <typename Entry>
class SetAssocTable
{
    static_assert(std::is_base_of_v<SetAssocEntry, Entry>,
                  "table entries derive from SetAssocEntry");

  public:
    SetAssocTable() = default;

    SetAssocTable(unsigned sets, unsigned ways)
        : numSets(sets), numWays(ways),
          entries(std::size_t(sets) * ways)
    {}

    unsigned sets() const { return numSets; }
    unsigned ways() const { return numWays; }

    Entry &
    way(std::size_t set, unsigned w)
    {
        return entries[set * numWays + w];
    }

    /** The valid way of @p set holding @p tag, or nullptr. */
    Entry *
    find(std::size_t set, std::uint64_t tag)
    {
        Entry *first = &entries[set * numWays];
        for (unsigned w = 0; w < numWays; ++w) {
            if (first[w].valid && first[w].tag == tag)
                return &first[w];
        }
        return nullptr;
    }

    const Entry *
    find(std::size_t set, std::uint64_t tag) const
    {
        return const_cast<SetAssocTable *>(this)->find(set, tag);
    }

    /** Make @p e the most recently used entry of its set. */
    void touch(Entry &e) { e.lruStamp = ++clock; }

    /** First invalid way of @p set, else its least recently used. */
    Entry &
    victim(std::size_t set)
    {
        Entry *first = &entries[set * numWays];
        Entry *oldest = first;
        for (unsigned w = 0; w < numWays; ++w) {
            if (!first[w].valid)
                return first[w];
            if (first[w].lruStamp < oldest->lruStamp)
                oldest = &first[w];
        }
        return *oldest;
    }

    unsigned
    validCount() const
    {
        unsigned n = 0;
        for (const Entry &e : entries) {
            if (e.valid)
                ++n;
        }
        return n;
    }

  private:
    unsigned numSets = 0;
    unsigned numWays = 0;
    std::vector<Entry> entries;
    std::uint64_t clock = 0;
};

} // namespace fdip

#endif // FDIP_COMMON_SET_ASSOC_HH
