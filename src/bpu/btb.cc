#include "bpu/btb.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace fdip
{

Btb::Btb(const Config &config)
    : cfg(config), idxBits(floorLog2(cfg.sets)),
      // A compressed tag keeps its low 8 bits verbatim.
      lowBits(cfg.tagBits < 8 ? cfg.tagBits : 8),
      lowMask((std::uint64_t(1) << lowBits) - 1),
      highBits(cfg.tagBits - lowBits), table(cfg.sets, cfg.ways)
{
    fatal_if(!isPowerOf2(cfg.sets), "BTB sets must be a power of two");
    fatal_if(cfg.ways == 0, "BTB needs at least one way");
    fatal_if(cfg.tagBits > fullTagBits(),
             "BTB tag wider than the full tag");
}

unsigned
Btb::fullTagBits() const
{
    // VA bits minus word-alignment bits minus set-index bits.
    return cfg.vaBits - 2 - idxBits;
}

bool
Btb::canHold(Addr pc, InstClass cls, Addr target) const
{
    if (cfg.offsetBits == 0)
        return true;
    // Returns need no target field at all (the RAS supplies the
    // target); the BTB entry only identifies the instruction.
    if (cls == InstClass::Return)
        return true;
    // Indirect branches have no static offset; they need a full-width
    // target field.
    if (!isDirect(cls))
        return false;
    std::int64_t delta =
        (static_cast<std::int64_t>(target) -
         static_cast<std::int64_t>(pc)) / static_cast<std::int64_t>(
             instBytes);
    return bitsForOffset(delta) <= cfg.offsetBits;
}

void
Btb::insert(Addr pc, InstClass cls, Addr target)
{
    if (!canHold(pc, cls, target)) {
        stInsertRejected.inc();
        return;
    }
    std::size_t set = setIndex(pc);
    std::uint64_t tag = tagOf(pc);

    // Update in place on tag match.
    if (Entry *e = table.find(set, tag)) {
        e->cls = cls;
        e->target = target;
        table.touch(*e);
        stUpdates.inc();
        return;
    }
    // Otherwise fill an invalid way, or evict the LRU way.
    Entry &victim = table.victim(set);
    if (table.valid(victim))
        stEvictions.inc();
    table.fill(victim, tag);
    victim.cls = cls;
    victim.target = target;
    table.touch(victim);
    stInserts.inc();
}

void
Btb::invalidate(Addr pc)
{
    if (Entry *e = table.find(setIndex(pc), tagOf(pc))) {
        table.invalidate(*e);
        stInvalidations.inc();
    }
}

unsigned
Btb::entryBits() const
{
    unsigned tag = cfg.tagBits == 0 ? fullTagBits() : cfg.tagBits;
    unsigned target = cfg.offsetBits == 0 ? cfg.vaBits - 2
                                          : cfg.offsetBits;
    return tag + 2 + target; // tag + type + target/offset
}

std::uint64_t
Btb::storageBits() const
{
    return std::uint64_t(numEntries()) * entryBits();
}

std::string
Btb::name() const
{
    return strprintf("btb[%ux%u,tag=%u,off=%u]", cfg.sets, cfg.ways,
                     cfg.tagBits, cfg.offsetBits);
}

} // namespace fdip
