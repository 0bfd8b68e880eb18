#include "mem/cache.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace fdip
{

Cache::Cache(const Config &config)
    : cfg(config)
{
    fatal_if(cfg.blockBytes == 0 || !isPowerOf2(cfg.blockBytes),
             "cache '%s': block size must be a power of two",
             cfg.name.c_str());
    fatal_if(cfg.assoc == 0, "cache '%s': zero associativity",
             cfg.name.c_str());
    std::uint64_t num_blocks = cfg.sizeBytes / cfg.blockBytes;
    fatal_if(num_blocks == 0 || num_blocks % cfg.assoc != 0,
             "cache '%s': size/assoc/block geometry invalid",
             cfg.name.c_str());
    unsigned sets = static_cast<unsigned>(num_blocks / cfg.assoc);
    fatal_if(!isPowerOf2(sets), "cache '%s': set count must be 2^n",
             cfg.name.c_str());
    blockShift = floorLog2(cfg.blockBytes);
    tagShift = blockShift + floorLog2(sets);
    blocks = SetAssocTable<Block>(sets, cfg.assoc);
}

bool
Cache::probe(Addr addr) const
{
    return findBlock(addr) != nullptr;
}

const char *
replPolicyName(ReplPolicy policy)
{
    switch (policy) {
      case ReplPolicy::Lru: return "lru";
      case ReplPolicy::Fifo: return "fifo";
      case ReplPolicy::Random: return "random";
    }
    return "?";
}

bool
Cache::access(Addr addr)
{
    stAccesses.inc();
    if (Block *b = findBlock(addr)) {
        // FIFO ignores access recency: the stamp is fill time only.
        if (cfg.repl == ReplPolicy::Lru)
            blocks.touch(*b);
        stHits.inc();
        return true;
    }
    stMisses.inc();
    return false;
}

Cache::Block &
Cache::pickVictim(std::size_t set)
{
    // Invalid ways fill first under every policy. LRU and FIFO both
    // evict the smallest stamp; they differ in whether access()
    // refreshes it.
    Block &victim = blocks.victim(set);
    if (!blocks.valid(victim) || cfg.repl != ReplPolicy::Random)
        return victim;
    // xorshift64 way choice: cheap and deterministic per run.
    randState ^= randState << 13;
    randState ^= randState >> 7;
    randState ^= randState << 17;
    return blocks.way(set, unsigned(randState % cfg.assoc));
}

std::optional<Addr>
Cache::insert(Addr addr, bool first_use_tag)
{
    if (Block *b = findBlock(addr)) {
        // Already present (e.g. duplicate fill): refresh only.
        blocks.touch(*b);
        return std::nullopt;
    }

    std::uint64_t set = setIndex(addr);
    Block &victim = pickVictim(set);

    std::optional<Addr> evicted;
    if (blocks.valid(victim)) {
        stEvictions.inc();
        evicted = (blocks.tag(victim) << tagShift) | (set << blockShift);
    }
    blocks.fill(victim, tagOf(addr));
    blocks.touch(victim);
    victim.firstUseTag = first_use_tag;
    stFills.inc();
    return evicted;
}

bool
Cache::invalidate(Addr addr)
{
    if (Block *b = findBlock(addr)) {
        blocks.invalidate(*b);
        stInvalidations.inc();
        return true;
    }
    return false;
}

bool
Cache::consumeFirstUse(Addr addr)
{
    if (Block *b = findBlock(addr)) {
        if (b->firstUseTag) {
            b->firstUseTag = false;
            return true;
        }
    }
    return false;
}

} // namespace fdip
