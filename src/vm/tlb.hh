/**
 * @file tlb.hh
 * Translation lookaside buffer: a set-associative, true-LRU cache of
 * virtual page numbers. The same class serves as the ITLB (stat
 * prefix "itlb") and as the larger, slower second-level TLB behind it
 * ("l2tlb"); the L2 TLB's ITLB-refill latency is VmConfig::l2TlbLatency,
 * applied by the Mmu. Only presence matters (the physical frame comes
 * from the page table), so entries store the full VPN as their tag.
 * Demand accesses update recency and statistics; the probe path is
 * side-effect-free so prefetchers can test translations without
 * perturbing replacement state.
 */

#ifndef FDIP_VM_TLB_HH
#define FDIP_VM_TLB_HH

#include <string>

#include "common/set_assoc.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace fdip
{

class Tlb
{
  public:
    struct Config
    {
        unsigned entries = 64;
        unsigned assoc = 4;
    };

    /** @param prefix stat-name prefix ("itlb", "l2tlb") */
    Tlb(const std::string &prefix, const Config &config);

    /** Tag check only: no LRU update, no stats side effects. */
    bool lookup(Addr vpn) const;

    /** Demand lookup: updates LRU and hit/miss statistics. */
    bool access(Addr vpn);

    /** Install a translation, evicting the set's LRU entry if full. */
    void insert(Addr vpn);

    /** Remove the translation; true if it was present. */
    bool invalidate(Addr vpn);

    const Config &config() const { return cfg; }
    unsigned numSets() const { return table.sets(); }
    unsigned numEntries() const { return cfg.entries; }
    unsigned validEntries() const { return table.validCount(); }

    StatSet stats;

  private:
    std::size_t setIndex(Addr vpn) const { return vpn & (numSets() - 1); }

    StatSet::Counter stAccesses;
    StatSet::Counter stMisses;
    StatSet::Counter stHits;
    StatSet::Counter stEvictions;
    StatSet::Counter stFills;

    Config cfg;
    SetAssocTable<SetAssocEntry> table;
};

} // namespace fdip

#endif // FDIP_VM_TLB_HH
