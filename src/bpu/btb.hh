/**
 * @file btb.hh
 * Conventional (instruction-indexed) branch target buffer, plus the
 * abstract interface shared with the partitioned-BTB extension.
 *
 * A hit means "the instruction at this PC is a control-flow instruction
 * of this type with this (last-seen) target". Entries are allocated for
 * taken branches only, LRU-replaced within a set.
 */

#ifndef FDIP_BPU_BTB_HH
#define FDIP_BPU_BTB_HH

#include <bit>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/set_assoc.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "trace/instr.hh"

namespace fdip
{

struct BtbHit
{
    InstClass cls;
    Addr target;
};

/**
 * Per-bucket counts of the entries resident in one target buffer; the
 * partitions of a partitioned BTB share one. A bucket is the low
 * bits() bits of pc/instBytes, so every entry a PC could hit lies in
 * that PC's bucket as long as the set index and the verbatim tag bits
 * together cover the bucket key (Btb::presenceBits()). A zero count
 * then proves a miss without probing any tag row.
 */
class BtbPresence
{
  public:
    /** Widest bucket key: a 32 KB array. */
    static constexpr unsigned kMaxBits = 15;
    /** Widest block mayHitMask() answers for. */
    static constexpr unsigned kMaxBlock = 32;

    /** @param max_count most entries one bucket can hold; it must
     *         fit the byte each count is kept in */
    explicit BtbPresence(unsigned bits = 0, std::uint64_t max_count = 0)
        : keyMask((std::size_t(1) << bits) - 1), counts(keyMask + 1, 0)
    {
        fatal_if(max_count > std::numeric_limits<std::uint8_t>::max(),
                 "BTB presence bucket could overflow its byte count "
                 "(%llu entries)", static_cast<unsigned long long>(
                     max_count));
    }

    unsigned bits() const { return unsigned(std::popcount(keyMask)); }

    /** Bucket of the instruction with index pc/instBytes @p inst. */
    std::size_t bucket(std::uint64_t inst) const { return inst & keyMask; }

    std::uint8_t count(std::size_t b) const { return counts[b]; }
    void add(std::size_t b) { ++counts[b]; }
    void remove(std::size_t b) { --counts[b]; }

    /** Bit i set iff the bucket of @p start_pc + i*instBytes holds an
     *  entry, for i < @p n <= kMaxBlock. */
    std::uint32_t
    mayHitMask(Addr start_pc, unsigned n) const
    {
        std::size_t first = bucket(start_pc / instBytes);
        std::uint32_t mask = 0;
        for (unsigned i = 0; i < n; ++i)
            mask |= std::uint32_t(counts[(first + i) & keyMask] != 0) << i;
        return mask;
    }

  private:
    std::size_t keyMask;
    std::vector<std::uint8_t> counts;
};

/** Interface common to the unified and partitioned BTBs. */
class BtbIface
{
  public:
    virtual ~BtbIface() = default;

    /** Probe for a branch at @p pc; touches LRU on hit. */
    virtual std::optional<BtbHit> lookup(Addr pc) = 0;

    /**
     * Which of the @p n PCs from @p start_pc could hit: a clear bit is
     * a proven miss. Touches nothing and counts no stats.
     */
    virtual std::uint32_t mayHitMask(Addr start_pc, unsigned n) const = 0;

    /** Count @p k lookups that mayHitMask() proved misses, exactly as
     *  @p k missing lookup() calls would have. */
    virtual void countMisses(std::uint64_t k) = 0;

    /** Allocate/update the entry for a taken branch. */
    virtual void insert(Addr pc, InstClass cls, Addr target) = 0;

    /** Drop any entry for @p pc. */
    virtual void invalidate(Addr pc) = 0;

    virtual std::uint64_t storageBits() const = 0;
    virtual std::string name() const = 0;

    StatSet stats;
};

class Btb final : public BtbIface
{
  public:
    struct Config
    {
        unsigned sets = 1024;
        unsigned ways = 4;
        /**
         * Tag width; 0 means a full tag. Non-zero widths keep the low
         * 8 bits of the full tag and fold the rest with XOR into the
         * remaining high bits (the compression scheme evaluated in the
         * tag-compression experiment).
         */
        unsigned tagBits = 0;
        /**
         * Width of the target-offset field in bits (offsets counted in
         * instructions, sign tracked separately); 0 stores full
         * targets. Branches whose offset does not fit are rejected by
         * insert() unless the target field is full width.
         */
        unsigned offsetBits = 0;
        /** Virtual address bits, for storage accounting. */
        unsigned vaBits = 48;
    };

    /**
     * @param shared presence counts to keep (a partitioned BTB's, shared
     *        by its partitions); null gives the BTB its own
     */
    explicit Btb(const Config &config, BtbPresence *shared = nullptr);

    /** Inline, so the partitioned BTB's probe of each partition
     *  compiles to a straight scan of one tag row. */
    std::optional<BtbHit>
    lookup(Addr pc) override
    {
        stLookups.inc();
        if (Entry *e = table.find(setIndex(pc), tagOf(pc))) {
            table.touch(*e);
            stHits.inc();
            return BtbHit{e->cls, e->target};
        }
        stMisses.inc();
        return std::nullopt;
    }

    std::uint32_t
    mayHitMask(Addr start_pc, unsigned n) const override
    {
        return presence->mayHitMask(start_pc, n);
    }

    void
    countMisses(std::uint64_t k) override
    {
        stLookups.inc(k);
        stMisses.inc(k);
    }

    void insert(Addr pc, InstClass cls, Addr target) override;
    void invalidate(Addr pc) override;
    std::uint64_t storageBits() const override;
    std::string name() const override;

    /**
     * Widest presence bucket key this geometry keeps sound: the
     * set-index bits plus the tag bits kept verbatim (all of a full
     * tag), capped at BtbPresence::kMaxBits.
     */
    static unsigned presenceBits(const Config &config);

    /** Most entries one presence bucket of @p bits bits can hold. */
    static std::uint64_t maxPerBucket(const Config &config, unsigned bits);

    const BtbPresence &presenceCounts() const { return *presence; }

    /** True if the branch's offset fits this BTB's target field. */
    bool canHold(Addr pc, InstClass cls, Addr target) const;

    /** Bits in one entry (tag + type + target field). */
    unsigned entryBits() const;

    /** Full (uncompressed) tag width for this geometry. */
    unsigned fullTagBits() const;

    const Config &config() const { return cfg; }
    unsigned numEntries() const { return cfg.sets * cfg.ways; }

    /** Count of currently valid entries (for tests/occupancy stats). */
    unsigned validEntries() const { return table.validCount(); }

  private:
    StatSet::Counter stLookups = stats.registerCounter("btb.lookups");
    StatSet::Counter stHits = stats.registerCounter("btb.hits");
    StatSet::Counter stMisses = stats.registerCounter("btb.misses");
    StatSet::Counter stInsertRejected =
        stats.registerCounter("btb.insert_rejected");
    StatSet::Counter stUpdates = stats.registerCounter("btb.updates");
    StatSet::Counter stEvictions = stats.registerCounter("btb.evictions");
    StatSet::Counter stInserts = stats.registerCounter("btb.inserts");
    StatSet::Counter stInvalidations =
        stats.registerCounter("btb.invalidations");

    struct Entry : SetAssocEntry
    {
        InstClass cls = InstClass::NonCF;
        Addr target = invalidAddr;
    };

    std::size_t
    setIndex(Addr pc) const
    {
        return (pc / instBytes) & (cfg.sets - 1);
    }

    std::uint64_t
    tagOf(Addr pc) const
    {
        std::uint64_t full = (pc / instBytes) >> idxBits;
        if (cfg.tagBits == 0)
            return full;
        // Keep the low bits verbatim; fold the rest by XOR into the
        // remaining high bits of the compressed tag.
        std::uint64_t low = full & lowMask;
        if (highBits == 0)
            return low;
        return (foldXor(full >> lowBits, highBits) << lowBits) | low;
    }

    /** Presence bucket of the entry holding @p tag in @p set. Bits of
     *  the tag above its verbatim ones land above the bucket key. */
    std::size_t
    bucketOf(std::size_t set, std::uint64_t tag) const
    {
        return presence->bucket((tag << idxBits) | set);
    }

    Config cfg;
    /** Tag geometry, fixed at construction: set-index bits, and the
     *  verbatim low and XOR-folded high widths of a compressed tag. */
    unsigned idxBits;
    unsigned lowBits;
    std::uint64_t lowMask;
    unsigned highBits;
    SetAssocTable<Entry> table;
    std::unique_ptr<BtbPresence> ownPresence;
    BtbPresence *presence;
};

} // namespace fdip

#endif // FDIP_BPU_BTB_HH
