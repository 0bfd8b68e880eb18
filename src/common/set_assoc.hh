/**
 * @file set_assoc.hh
 * Storage and stamp-LRU replacement for a set-associative table. The
 * L1-I/L2 cache tags, BTB, FTB, ITLB, L2 TLB and MANA table are all
 * built on it: each owner computes its own set index and tag and
 * keeps its payload in an Entry derived from SetAssocEntry, and the
 * table finds, stamps and picks victims.
 *
 * The table alone owns each way's tag and valid bit: one dense row of
 * tags per set, where kNoTag marks an invalid way. find() scans that
 * one contiguous row without branching on the data, and owners change
 * a way only through fill() and invalidate(). No real tag may equal
 * kNoTag (every owner's tag is a right-shifted address, so none can);
 * fill() panics on it.
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

#include "common/logging.hh"

namespace fdip
{

struct SetAssocEntry
{
    std::uint64_t lruStamp = 0;
};

template <typename Entry>
class SetAssocTable
{
    static_assert(std::is_base_of_v<SetAssocEntry, Entry>,
                  "table entries derive from SetAssocEntry");

  public:
    /** Tag-row sentinel of an invalid way; never a real tag. */
    static constexpr std::uint64_t kNoTag = ~std::uint64_t(0);

    SetAssocTable() = default;

    SetAssocTable(unsigned sets, unsigned ways)
        : numSets(sets), numWays(ways),
          entries(std::size_t(sets) * ways),
          tags(std::size_t(sets) * ways, kNoTag)
    {}

    unsigned sets() const { return numSets; }
    unsigned ways() const { return numWays; }

    Entry &
    way(std::size_t set, unsigned w)
    {
        return entries[set * numWays + w];
    }

    /** The first valid way of @p set holding @p tag, or nullptr. */
    Entry *
    find(std::size_t set, std::uint64_t tag)
    {
        const std::uint64_t *row = &tags[set * numWays];
        unsigned hit = numWays;
        for (unsigned w = numWays; w-- > 0;)
            hit = row[w] == tag ? w : hit;
        return hit == numWays ? nullptr : &entries[set * numWays + hit];
    }

    const Entry *
    find(std::size_t set, std::uint64_t tag) const
    {
        return const_cast<SetAssocTable *>(this)->find(set, tag);
    }

    bool valid(const Entry &e) const { return tags[indexOf(e)] != kNoTag; }

    /** The tag @p e was last filled with (kNoTag when invalid). */
    std::uint64_t tag(const Entry &e) const { return tags[indexOf(e)]; }

    /** Make @p e a valid way holding @p tag; the stamp is untouched. */
    void
    fill(Entry &e, std::uint64_t tag)
    {
        panic_if(tag == kNoTag, "set-associative fill with the kNoTag "
                                "sentinel as its tag");
        tags[indexOf(e)] = tag;
    }

    /** Drop @p e; it keeps its stale stamp. */
    void invalidate(Entry &e) { tags[indexOf(e)] = kNoTag; }

    /** Make @p e the most recently used entry of its set. */
    void touch(Entry &e) { e.lruStamp = ++clock; }

    /** First invalid way of @p set, else its least recently used. */
    Entry &
    victim(std::size_t set)
    {
        const std::uint64_t *row = &tags[set * numWays];
        Entry *first = &entries[set * numWays];
        Entry *oldest = first;
        for (unsigned w = 0; w < numWays; ++w) {
            if (row[w] == kNoTag)
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
        for (std::uint64_t t : tags) {
            if (t != kNoTag)
                ++n;
        }
        return n;
    }

  private:
    std::size_t
    indexOf(const Entry &e) const
    {
        return std::size_t(&e - entries.data());
    }

    unsigned numSets = 0;
    unsigned numWays = 0;
    std::vector<Entry> entries;
    /** One row of numWays tags per set, kNoTag for an invalid way. */
    std::vector<std::uint64_t> tags;
    std::uint64_t clock = 0;
};

} // namespace fdip

#endif // FDIP_COMMON_SET_ASSOC_HH
