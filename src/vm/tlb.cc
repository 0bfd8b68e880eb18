#include "vm/tlb.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace fdip
{

Tlb::Tlb(const std::string &prefix, const Config &config)
    : stAccesses(stats.registerCounter(prefix + ".accesses")),
      stMisses(stats.registerCounter(prefix + ".misses")),
      stHits(stats.registerCounter(prefix + ".hits")),
      stEvictions(stats.registerCounter(prefix + ".evictions")),
      stFills(stats.registerCounter(prefix + ".fills")),
      cfg(config)
{
    const char *name = prefix.c_str();
    fatal_if(cfg.entries == 0, "TLB '%s' needs at least one entry", name);
    fatal_if(cfg.assoc == 0, "TLB '%s' associativity must be nonzero",
             name);
    fatal_if(cfg.entries % cfg.assoc != 0,
             "TLB '%s' entries must divide evenly into ways", name);
    unsigned sets = cfg.entries / cfg.assoc;
    fatal_if(!isPowerOf2(sets),
             "TLB '%s' set count must be a power of two", name);
    table = SetAssocTable<SetAssocEntry>(sets, cfg.assoc);
}

bool
Tlb::lookup(Addr vpn) const
{
    return table.find(setIndex(vpn), vpn) != nullptr;
}

bool
Tlb::access(Addr vpn)
{
    stAccesses.inc();
    SetAssocEntry *e = table.find(setIndex(vpn), vpn);
    if (e == nullptr) {
        stMisses.inc();
        return false;
    }
    table.touch(*e);
    stHits.inc();
    return true;
}

void
Tlb::insert(Addr vpn)
{
    if (SetAssocEntry *e = table.find(setIndex(vpn), vpn)) {
        // Refreshed by a racing walk; just bump recency.
        table.touch(*e);
        return;
    }
    SetAssocEntry &victim = table.victim(setIndex(vpn));
    if (table.valid(victim))
        stEvictions.inc();
    table.fill(victim, vpn);
    table.touch(victim);
    stFills.inc();
}

bool
Tlb::invalidate(Addr vpn)
{
    SetAssocEntry *e = table.find(setIndex(vpn), vpn);
    if (e == nullptr)
        return false;
    table.invalidate(*e);
    return true;
}

} // namespace fdip
