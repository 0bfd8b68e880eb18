#include "bpu/btb.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace fdip
{

Btb::Btb(const Config &config, BtbPresence *shared)
    : cfg(config), idxBits(floorLog2(cfg.sets)),
      // A compressed tag keeps its low 8 bits verbatim.
      lowBits(cfg.tagBits < 8 ? cfg.tagBits : 8),
      lowMask((std::uint64_t(1) << lowBits) - 1),
      highBits(cfg.tagBits - lowBits), table(cfg.sets, cfg.ways),
      presence(shared)
{
    fatal_if(!isPowerOf2(cfg.sets), "BTB sets must be a power of two");
    fatal_if(cfg.ways == 0, "BTB needs at least one way");
    fatal_if(cfg.tagBits > fullTagBits(),
             "BTB tag wider than the full tag");
    if (presence == nullptr) {
        unsigned bits = presenceBits(cfg);
        ownPresence = std::make_unique<BtbPresence>(
            bits, maxPerBucket(cfg, bits));
        presence = ownPresence.get();
    }
    panic_if(presence->bits() > presenceBits(cfg),
             "BTB presence key wider than its set index and verbatim "
             "tag bits");
}

unsigned
Btb::presenceBits(const Config &config)
{
    if (config.tagBits == 0)
        return BtbPresence::kMaxBits;
    unsigned exact = floorLog2(config.sets) + std::min(config.tagBits, 8u);
    return std::min(exact, BtbPresence::kMaxBits);
}

std::uint64_t
Btb::maxPerBucket(const Config &config, unsigned bits)
{
    // A bucket fixes the low bits of the set index: it spans every
    // set that agrees on them.
    unsigned idx = floorLog2(config.sets);
    unsigned spread = idx > bits ? idx - bits : 0;
    return std::uint64_t(config.ways) << spread;
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
    if (table.valid(victim)) {
        stEvictions.inc();
        presence->remove(bucketOf(set, table.tag(victim)));
    }
    table.fill(victim, tag);
    presence->add(bucketOf(set, tag));
    victim.cls = cls;
    victim.target = target;
    table.touch(victim);
    stInserts.inc();
}

void
Btb::invalidate(Addr pc)
{
    std::size_t set = setIndex(pc);
    std::uint64_t tag = tagOf(pc);
    if (Entry *e = table.find(set, tag)) {
        table.invalidate(*e);
        presence->remove(bucketOf(set, tag));
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
