/**
 * @file cache.hh
 * Set-associative cache tag/presence model with true-LRU replacement.
 * Only tags matter to a front-end study; no data is stored. Each block
 * carries a "first-use" tag bit driving tagged next-line prefetching.
 */

#ifndef FDIP_MEM_CACHE_HH
#define FDIP_MEM_CACHE_HH

#include <optional>
#include <string>

#include "common/set_assoc.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace fdip
{

/** Victim-selection policy. */
enum class ReplPolicy : std::uint8_t
{
    Lru,    ///< true least-recently-used
    Fifo,   ///< oldest fill leaves first (no access recency)
    Random, ///< pseudo-random way (cheap hardware)
};

const char *replPolicyName(ReplPolicy policy);

class Cache
{
  public:
    struct Config
    {
        std::string name = "cache";
        std::uint64_t sizeBytes = 16 * 1024;
        unsigned assoc = 2;
        unsigned blockBytes = 32;
        ReplPolicy repl = ReplPolicy::Lru;
    };

    explicit Cache(const Config &config);

    Addr
    blockAlign(Addr addr) const
    {
        return addr & ~Addr(cfg.blockBytes - 1);
    }

    /** Tag check only: no LRU update, no stats side effects. */
    bool probe(Addr addr) const;

    /** Demand access: updates LRU and hit/miss statistics. */
    bool access(Addr addr);

    /**
     * Fill @p addr, evicting LRU if needed. @p first_use_tag seeds the
     * tagged-prefetch bit. Returns the evicted block, if any.
     */
    std::optional<Addr> insert(Addr addr, bool first_use_tag = true);

    /** Remove the block; true if it was present. */
    bool invalidate(Addr addr);

    /**
     * Tagged-prefetch support: if the block is present and its tag bit
     * is set, clear it and return true ("first demand use").
     */
    bool consumeFirstUse(Addr addr);

    const Config &config() const { return cfg; }
    unsigned numSets() const { return blocks.sets(); }
    unsigned numBlocks() const { return numSets() * cfg.assoc; }
    unsigned validBlocks() const { return blocks.validCount(); }

    StatSet stats;

  private:
    StatSet::Counter stAccesses = stats.registerCounter("cache.accesses");
    StatSet::Counter stHits = stats.registerCounter("cache.hits");
    StatSet::Counter stMisses = stats.registerCounter("cache.misses");
    StatSet::Counter stEvictions = stats.registerCounter("cache.evictions");
    StatSet::Counter stFills = stats.registerCounter("cache.fills");
    StatSet::Counter stInvalidations =
        stats.registerCounter("cache.invalidations");

    struct Block : SetAssocEntry
    {
        bool firstUseTag = false;
    };

    std::size_t
    setIndex(Addr addr) const
    {
        return (addr >> blockShift) & (blocks.sets() - 1);
    }

    std::uint64_t tagOf(Addr addr) const { return addr >> tagShift; }

    Block *
    findBlock(Addr addr)
    {
        return blocks.find(setIndex(addr), tagOf(addr));
    }

    const Block *
    findBlock(Addr addr) const
    {
        return blocks.find(setIndex(addr), tagOf(addr));
    }

    Block &pickVictim(std::size_t set);

    Config cfg;
    /** log2(block bytes), and that plus log2(sets): the index shifts,
     *  fixed at construction. */
    unsigned blockShift;
    unsigned tagShift;
    SetAssocTable<Block> blocks;
    std::uint64_t randState = 0x243f6a8885a308d3ULL;
};

} // namespace fdip

#endif // FDIP_MEM_CACHE_HH
