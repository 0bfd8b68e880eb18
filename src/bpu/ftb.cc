#include "bpu/ftb.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace fdip
{

Ftb::Ftb(const Config &config)
    : cfg(config), idxBits(floorLog2(cfg.sets)), table(cfg.sets, cfg.ways)
{
    fatal_if(!isPowerOf2(cfg.sets), "FTB sets must be a power of two");
    fatal_if(cfg.ways == 0, "FTB needs at least one way");
    fatal_if(cfg.maxBlockInsts == 0 || cfg.maxBlockInsts > 255,
             "FTB block size out of range");
}

unsigned
Ftb::fullTagBits() const
{
    return cfg.vaBits - 2 - idxBits;
}

std::optional<FtbBlock>
Ftb::lookup(Addr start_pc)
{
    stLookups.inc();
    if (Entry *e = table.find(setIndex(start_pc), tagOf(start_pc))) {
        table.touch(*e);
        stHits.inc();
        return FtbBlock{e->numInsts, e->cls, e->target};
    }
    stMisses.inc();
    return std::nullopt;
}

void
Ftb::insert(Addr start_pc, unsigned num_insts, InstClass cls, Addr target)
{
    panic_if(num_insts == 0, "FTB block with no instructions");
    if (num_insts > cfg.maxBlockInsts) {
        // Blocks longer than the size field are truncated by hardware;
        // the tail is rediscovered as a separate (sequential) region.
        stInsertTruncated.inc();
        return;
    }
    std::size_t set = setIndex(start_pc);
    std::uint64_t tag = tagOf(start_pc);

    if (Entry *e = table.find(set, tag)) {
        e->numInsts = static_cast<std::uint8_t>(num_insts);
        e->cls = cls;
        e->target = target;
        table.touch(*e);
        stUpdates.inc();
        return;
    }
    Entry &victim = table.victim(set);
    if (table.valid(victim))
        stEvictions.inc();
    table.fill(victim, tag);
    victim.numInsts = static_cast<std::uint8_t>(num_insts);
    victim.cls = cls;
    victim.target = target;
    table.touch(victim);
    stInserts.inc();
}

void
Ftb::invalidate(Addr start_pc)
{
    if (Entry *e = table.find(setIndex(start_pc), tagOf(start_pc))) {
        table.invalidate(*e);
        stInvalidations.inc();
    }
}

unsigned
Ftb::entryBits() const
{
    return fullTagBits() + 2 + 5 + (cfg.vaBits - 2);
}

std::uint64_t
Ftb::storageBits() const
{
    return std::uint64_t(numEntries()) * entryBits();
}

std::string
Ftb::name() const
{
    return strprintf("ftb[%ux%u]", cfg.sets, cfg.ways);
}

} // namespace fdip
