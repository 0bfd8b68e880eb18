/** Tests for the partitioned-BTB extension. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "bpu/partitioned_btb.hh"
#include "common/logging.hh"
#include "common/random.hh"

using namespace fdip;

namespace
{

PartitionedBtb::Config
tinyCfg()
{
    PartitionedBtb::Config c;
    c.tagBits = 16;
    c.partitions = {
        {8, 16, 2},
        {13, 16, 2},
        {23, 16, 2},
        {0, 8, 2},
    };
    return c;
}

} // namespace

TEST(PartitionedBtb, AllocatesToSmallestFittingPartition)
{
    PartitionedBtb pbtb(tinyCfg());
    Addr pc = 0x100000;

    pbtb.insert(pc, InstClass::Jump, pc + 100 * instBytes);   // 7 bits
    pbtb.insert(pc + 4, InstClass::Jump, pc + 5000 * instBytes);  // 13
    pbtb.insert(pc + 8, InstClass::Jump, pc + 4000000 * instBytes); // 22
    pbtb.insert(pc + 12, InstClass::IndCall, 0x40000000);     // full

    EXPECT_EQ(pbtb.stats.counter("pbtb.insert_p0"), 1u);
    EXPECT_EQ(pbtb.stats.counter("pbtb.insert_p1"), 1u);
    EXPECT_EQ(pbtb.stats.counter("pbtb.insert_p2"), 1u);
    EXPECT_EQ(pbtb.stats.counter("pbtb.insert_p3"), 1u);

    for (unsigned i = 0; i < 4; ++i)
        EXPECT_TRUE(pbtb.lookup(pc + i * 4).has_value()) << i;
}

TEST(PartitionedBtb, LookupSearchesAllPartitions)
{
    PartitionedBtb pbtb(tinyCfg());
    Addr pc = 0x200000;
    Addr far = pc + (1 << 20) * instBytes;
    pbtb.insert(pc, InstClass::Jump, far);
    auto hit = pbtb.lookup(pc);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->target, far);
}

TEST(PartitionedBtb, TargetChangeMigratesPartition)
{
    PartitionedBtb pbtb(tinyCfg());
    Addr pc = 0x300000;
    pbtb.insert(pc, InstClass::CondBr, pc + 10 * instBytes);  // short
    pbtb.insert(pc, InstClass::CondBr, pc + 100000 * instBytes); // long
    // Exactly one entry must survive, holding the new target.
    auto hit = pbtb.lookup(pc);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->target, pc + 100000 * instBytes);
    unsigned valid = 0;
    for (unsigned p = 0; p < pbtb.numPartitions(); ++p)
        valid += pbtb.partition(p).validEntries();
    EXPECT_EQ(valid, 1u);
}

TEST(PartitionedBtb, InvalidateClearsEverywhere)
{
    PartitionedBtb pbtb(tinyCfg());
    Addr pc = 0x400000;
    pbtb.insert(pc, InstClass::Jump, pc + 4 * instBytes);
    pbtb.invalidate(pc);
    EXPECT_FALSE(pbtb.lookup(pc).has_value());
}

TEST(PartitionedBtb, DefaultConfigGeometry)
{
    auto cfg = PartitionedBtb::makeDefaultConfig(1024);
    PartitionedBtb pbtb(cfg);
    EXPECT_EQ(pbtb.numPartitions(), 4u);
    // Distribution-tuned sizing: the 8-bit partition dominates
    // (short offsets plus returns), the longer-offset partitions are
    // small, and the full-width partition serves indirects.
    EXPECT_EQ(pbtb.partition(0).numEntries(), 1536u);
    EXPECT_EQ(pbtb.partition(1).numEntries(), 256u);
    EXPECT_EQ(pbtb.partition(2).numEntries(), 256u);
    EXPECT_EQ(pbtb.partition(3).numEntries(), 384u);
}

TEST(PartitionedBtb, StorageBeatsUnifiedPerEntry)
{
    // At roughly equal storage, the partitioned design holds over 2x
    // the entries of the unified full-entry block-based design.
    auto cfg = PartitionedBtb::makeDefaultConfig(1024);
    PartitionedBtb pbtb(cfg);

    Btb::Config unified;
    unified.sets = 128;
    unified.ways = 8;          // 1K entries
    unified.tagBits = 0;       // full tag
    unified.offsetBits = 0;    // full target
    Btb ubtb(unified);

    double pb_per_entry = static_cast<double>(pbtb.storageBits()) /
        pbtb.numEntries();
    double ub_per_entry = static_cast<double>(ubtb.storageBits()) /
        ubtb.numEntries();
    EXPECT_LT(pb_per_entry, ub_per_entry / 2.0);
    EXPECT_GT(static_cast<double>(pbtb.numEntries()),
              2.0 * ubtb.numEntries());
}

TEST(PartitionedBtb, RejectsUnencodableNever)
{
    // The full-width partition accepts everything, so inserts must
    // never be rejected.
    PartitionedBtb pbtb(tinyCfg());
    Addr pc = 0x500000;
    pbtb.insert(pc, InstClass::Jump, 0xFFFFFFFFF0ull);
    EXPECT_EQ(pbtb.stats.counter("pbtb.insert_rejected"), 0u);
    EXPECT_TRUE(pbtb.lookup(pc).has_value());
}

TEST(PartitionedBtbDeath, EmptyConfig)
{
    PartitionedBtb::Config c;
    EXPECT_DEATH({ PartitionedBtb p(c); }, "no partitions");
}

namespace
{

/**
 * Brute-force model of the partitioned BTB: per partition, each way's
 * valid bit, tag, payload and the PC that filled it, and per set a
 * recency list of way indices (least recent first; untouched ways in
 * way order). The set index, the compressed (or full) tag and the
 * offset-class rule are recomputed here from their definitions. A
 * single full-width partition models the unified BTB.
 */
class PbtbReference
{
  public:
    struct Way
    {
        bool valid = false;
        std::uint64_t tag = 0;
        InstClass cls = InstClass::NonCF;
        Addr target = 0;
        Addr pc = 0;
    };

    struct Part
    {
        unsigned offsetBits;
        unsigned sets;
        unsigned ways;
        std::vector<std::vector<Way>> way;
        std::vector<std::vector<unsigned>> order;
        std::uint64_t lookups = 0, hits = 0, misses = 0;
    };

    explicit PbtbReference(const PartitionedBtb::Config &cfg)
        : tagBits(cfg.tagBits)
    {
        // Partitions in ascending offset width, full width last.
        auto specs = cfg.partitions;
        std::stable_sort(specs.begin(), specs.end(),
                         [](const auto &a, const auto &b) {
                             unsigned wa = a.offsetBits ? a.offsetBits : 99;
                             unsigned wb = b.offsetBits ? b.offsetBits : 99;
                             return wa < wb;
                         });
        for (const auto &s : specs) {
            Part p{s.offsetBits, s.sets, s.ways, {}, {}};
            p.way.assign(s.sets, std::vector<Way>(s.ways));
            p.order.resize(s.sets);
            for (auto &list : p.order) {
                for (unsigned w = 0; w < s.ways; ++w)
                    list.push_back(w);
            }
            parts.push_back(p);
        }
    }

    static unsigned
    log2(unsigned n)
    {
        unsigned b = 0;
        while ((1u << b) < n)
            ++b;
        return b;
    }

    std::size_t
    setOf(const Part &p, Addr pc) const
    {
        return std::size_t((pc / instBytes) % p.sets);
    }

    /** Low 8 tag bits verbatim, the rest XORed byte-wise into 8; a
     *  zero tag width keeps the full tag. */
    std::uint64_t
    tagOf(const Part &p, Addr pc) const
    {
        std::uint64_t full = (pc / instBytes) >> log2(p.sets);
        if (tagBits == 0)
            return full;
        std::uint64_t low = full & 0xff;
        unsigned high_bits = tagBits - 8;
        std::uint64_t high = 0;
        for (std::uint64_t rest = full >> 8; rest != 0;
             rest >>= high_bits)
            high ^= rest & ((std::uint64_t(1) << high_bits) - 1);
        return (high << 8) | low;
    }

    int
    findWay(const Part &p, Addr pc) const
    {
        const auto &set = p.way[setOf(p, pc)];
        std::uint64_t tag = tagOf(p, pc);
        for (unsigned w = 0; w < p.ways; ++w) {
            if (set[w].valid && set[w].tag == tag)
                return int(w);
        }
        return -1;
    }

    void
    touch(Part &p, std::size_t set, unsigned w)
    {
        auto &list = p.order[set];
        list.erase(std::find(list.begin(), list.end(), w));
        list.push_back(w);
    }

    bool
    fits(const Part &p, Addr pc, InstClass cls, Addr target) const
    {
        if (p.offsetBits == 0 || cls == InstClass::Return)
            return true;
        if (!isDirect(cls))
            return false;
        std::int64_t delta = (std::int64_t(target) - std::int64_t(pc)) /
            std::int64_t(instBytes);
        std::uint64_t mag = delta < 0 ? std::uint64_t(-delta)
                                      : std::uint64_t(delta);
        unsigned bits = 1;
        while (mag >> bits)
            ++bits;
        return bits <= p.offsetBits;
    }

    /** The hit and the index of the partition that supplied it. */
    std::optional<std::pair<BtbHit, unsigned>>
    lookup(Addr pc)
    {
        ++lookups;
        for (unsigned i = 0; i < parts.size(); ++i) {
            Part &p = parts[i];
            ++p.lookups;
            int w = findWay(p, pc);
            if (w < 0) {
                ++p.misses;
                continue;
            }
            touch(p, setOf(p, pc), unsigned(w));
            ++p.hits;
            ++hits;
            const Way &e = p.way[setOf(p, pc)][unsigned(w)];
            return std::make_pair(BtbHit{e.cls, e.target}, i);
        }
        ++misses;
        return std::nullopt;
    }

    void
    invalidateIn(Part &p, Addr pc)
    {
        int w = findWay(p, pc);
        if (w >= 0)
            p.way[setOf(p, pc)][unsigned(w)].valid = false;
    }

    void
    insert(Addr pc, InstClass cls, Addr target)
    {
        int pi = -1;
        for (unsigned i = 0; i < parts.size() && pi < 0; ++i) {
            if (fits(parts[i], pc, cls, target))
                pi = int(i);
        }
        if (pi < 0) {
            ++rejected;
            return;
        }
        for (unsigned i = 0; i < parts.size(); ++i) {
            if (int(i) != pi)
                invalidateIn(parts[i], pc);
        }
        Part &p = parts[unsigned(pi)];
        std::size_t set = setOf(p, pc);
        int w = findWay(p, pc);
        if (w < 0) {
            for (unsigned v = 0; v < p.ways && w < 0; ++v) {
                if (!p.way[set][v].valid)
                    w = int(v);
            }
            if (w < 0)
                w = int(p.order[set].front());
        }
        Way &e = p.way[set][unsigned(w)];
        e = Way{true, tagOf(p, pc), cls, target, pc};
        touch(p, set, unsigned(w));
        ++insertsBy[unsigned(pi)];
    }

    void
    invalidate(Addr pc)
    {
        for (Part &p : parts)
            invalidateIn(p, pc);
    }

    /** Whether lookup(@p pc) would hit, without touching anything. */
    bool
    wouldHit(Addr pc) const
    {
        for (const Part &p : parts) {
            if (findWay(p, pc) >= 0)
                return true;
        }
        return false;
    }

    /** Valid entries per presence bucket of @p bits bits, recounted
     *  from the PCs that filled them (absent buckets hold none). */
    std::map<std::size_t, unsigned>
    recount(unsigned bits) const
    {
        std::map<std::size_t, unsigned> n;
        std::uint64_t mask = (std::uint64_t(1) << bits) - 1;
        for (const Part &p : parts) {
            for (const auto &set : p.way) {
                for (const Way &e : set) {
                    if (e.valid)
                        ++n[std::size_t((e.pc / instBytes) & mask)];
                }
            }
        }
        return n;
    }

    unsigned
    validIn(unsigned i) const
    {
        unsigned n = 0;
        for (const auto &set : parts[i].way) {
            for (const Way &e : set)
                n += e.valid ? 1 : 0;
        }
        return n;
    }

    unsigned tagBits;
    std::vector<Part> parts;
    std::uint64_t lookups = 0, hits = 0, misses = 0, rejected = 0;
    std::uint64_t insertsBy[4] = {0, 0, 0, 0};
};

/** Presence bucket of @p pc in a @p bits-bit key, from its definition. */
std::size_t
bucketOf(Addr pc, unsigned bits)
{
    return std::size_t((pc / instBytes) & ((std::uint64_t(1) << bits) - 1));
}

/**
 * The block-probe contract, checked against the model: the presence
 * counts of every bucket a pool PC falls in (the only buckets an entry
 * can occupy) equal a recount of the model's entries, every other
 * bucket is empty on a full sweep, and for each block start and width
 * the mask sets exactly the PCs whose bucket is occupied, a superset
 * of the PCs that would hit.
 */
void
checkPresence(const BtbPresence &presence, const PbtbReference &ref,
              const std::vector<Addr> &pcs,
              const std::vector<Addr> &starts, bool full_sweep, int step)
{
    unsigned bits = presence.bits();
    auto want = ref.recount(bits);
    auto count_of = [&](std::size_t b) {
        auto it = want.find(b);
        return it == want.end() ? 0u : it->second;
    };
    for (Addr pc : pcs) {
        std::size_t b = bucketOf(pc, bits);
        ASSERT_EQ(presence.count(b), count_of(b))
            << "step " << step << ", bucket " << b;
    }
    if (full_sweep) {
        for (std::size_t b = 0; b < (std::size_t(1) << bits); ++b) {
            ASSERT_EQ(presence.count(b), count_of(b))
                << "step " << step << ", bucket " << b;
        }
    }
    for (Addr start : starts) {
        for (unsigned n : {5u, 8u, 32u}) {
            std::uint32_t mask = presence.mayHitMask(start, n);
            for (unsigned i = 0; i < 32; ++i) {
                Addr pc = start + Addr(i) * instBytes;
                bool set = (mask >> i) & 1;
                bool occupied = i < n && count_of(bucketOf(pc, bits)) > 0;
                ASSERT_EQ(set, occupied)
                    << "step " << step << ", start " << std::hex << start
                    << std::dec << ", n " << n << ", bit " << i;
                if (i < n && ref.wouldHit(pc)) {
                    ASSERT_TRUE(set) << "step " << step << ", a hit at "
                                     << std::hex << pc << " masked out";
                }
            }
        }
    }
}

/**
 * Drive @p btb and the model through one random script over @p pcs:
 * single lookups, block probes the way the BPU makes them (lookup()
 * only for PCs the mask leaves set, countMisses() for the rest),
 * inserts and invalidates. After every step, the outcomes, the
 * presence contract and @p check_stats must hold.
 */
template <typename Buffer>
void
runScript(Buffer &btb, PbtbReference &ref, const std::vector<Addr> &pcs,
          std::uint64_t seed, int steps,
          const std::function<void(int)> &check_stats)
{
    const InstClass classes[] = {InstClass::CondBr, InstClass::Jump,
                                 InstClass::Call,   InstClass::Return,
                                 InstClass::IndJump, InstClass::IndCall};
    // Offsets (in instructions) that need 1-8, 9-13, 14-23 and more
    // than 23 bits, both signs.
    const std::int64_t spans[] = {100, 4000, 3000000, std::int64_t(1) << 30};
    // Blocks across the bucket wrap (bucket 0 is at 0x400000, also a
    // set-index wrap of every partition) and across a set-index wrap
    // alone.
    const std::vector<Addr> wrap_starts = {0x400000 - 3 * instBytes,
                                           0x402800 - 3 * instBytes};

    Rng rng(seed);
    auto compare = [&](Addr pc, int step) {
        auto got = btb.lookup(pc);
        auto want = ref.lookup(pc);
        ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
        if (got) {
            ASSERT_EQ(got->cls, want->first.cls) << "step " << step;
            ASSERT_EQ(got->target, want->first.target)
                << "step " << step << ", hit in partition "
                << want->second;
        }
    };
    for (int step = 0; step < steps; ++step) {
        Addr pc = pcs[rng.below(pcs.size())];
        std::uint64_t op = rng.below(12);
        if (op < 4) {
            compare(pc, step);
        } else if (op < 6) {
            Addr start = pc - rng.below(8) * instBytes;
            unsigned n = op == 4 ? 8 : 1 + unsigned(rng.below(32));
            std::uint32_t mask = btb.mayHitMask(start, n);
            for (unsigned i = 0; i < n; ++i) {
                Addr pc_i = start + Addr(i) * instBytes;
                if ((mask >> i) & 1) {
                    compare(pc_i, step);
                } else {
                    ASSERT_FALSE(ref.lookup(pc_i).has_value())
                        << "step " << step << ", PC " << i
                        << " masked out but hits";
                }
            }
            btb.countMisses(n - unsigned(std::popcount(mask)));
        } else if (op < 11) {
            InstClass cls = classes[rng.below(6)];
            std::int64_t span = spans[rng.below(4)];
            std::int64_t delta = std::int64_t(rng.below(std::uint64_t(span))) -
                span / 2;
            Addr target = Addr(std::int64_t(pc) + delta * instBytes);
            btb.insert(pc, cls, target);
            ref.insert(pc, cls, target);
        } else {
            btb.invalidate(pc);
            ref.invalidate(pc);
        }
        if (::testing::Test::HasFatalFailure())
            return;
        std::vector<Addr> starts = wrap_starts;
        starts.push_back(pc - 3 * instBytes);
        checkPresence(btb.presenceCounts(), ref, pcs, starts,
                      step % 4000 == 0 || step + 1 == steps, step);
        if (::testing::Test::HasFatalFailure())
            return;
        check_stats(step);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/**
 * PCs crowding 8 sets of every partition (bits 2..4) with 32 full tags
 * each (bits 11..15), so sets overflow, plus each PC's aliases that
 * differ from it only above the set index, in two bits that cancel in
 * the XOR fold of a 16-bit tag: the same tag in the 512-set partition
 * (mask at bit 19) and in the 128-set ones (bit 17). Then the PCs of
 * the blocks that cross the bucket wrap and a set-index wrap.
 */
std::vector<Addr>
crowdedPcs(std::uint64_t seed)
{
    const Addr kAlias512 = Addr(0x0101) << (2 + 9 + 8);
    const Addr kAlias128 = Addr(0x0101) << (2 + 7 + 8);
    Rng rng(seed);
    std::vector<Addr> pcs;
    for (unsigned i = 0; i < 96; ++i) {
        Addr pc = 0x400000 + rng.below(8) * instBytes +
            (Addr(rng.below(32)) << 11);
        pcs.push_back(pc);
        pcs.push_back(pc ^ kAlias512);
        pcs.push_back(pc ^ kAlias128);
    }
    for (Addr wrap : {Addr(0x400000), Addr(0x402800)}) {
        for (int k = -4; k < 4; ++k)
            pcs.push_back(Addr(std::int64_t(wrap) + k * 4));
    }
    return pcs;
}

} // namespace

TEST(PartitionedBtb, MatchesBruteForceFourPartitionModel)
{
    // The 2048-entry default organization: 512x6 (8-bit offsets),
    // 128x4 (13), 128x4 (23) and 128x6 (full width), 16-bit tags.
    PartitionedBtb::Config cfg = PartitionedBtb::makeDefaultConfig(2048);
    PartitionedBtb pbtb(cfg);
    PbtbReference ref(cfg);
    ASSERT_EQ(pbtb.numPartitions(), 4u);
    ASSERT_EQ(ref.parts.size(), 4u);
    // min(15, 7 set-index bits + 8 verbatim tag bits).
    ASSERT_EQ(pbtb.presenceCounts().bits(), 15u);

    runScript(pbtb, ref, crowdedPcs(0xb7b2048), 0x5c41b7, 40000, [&](int step) {
        for (unsigned i = 0; i < 4; ++i) {
            const StatSet &ps = pbtb.partition(i).stats;
            const auto &rp = ref.parts[i];
            ASSERT_EQ(pbtb.partition(i).validEntries(), ref.validIn(i))
                << "step " << step << ", partition " << i;
            ASSERT_EQ(pbtb.stats.counter(strprintf("pbtb.insert_p%u", i)),
                      ref.insertsBy[i])
                << "step " << step;
            ASSERT_EQ(ps.counter("btb.lookups"), rp.lookups)
                << "step " << step << ", partition " << i;
            ASSERT_EQ(ps.counter("btb.hits"), rp.hits)
                << "step " << step << ", partition " << i;
            ASSERT_EQ(ps.counter("btb.misses"), rp.misses)
                << "step " << step << ", partition " << i;
        }
        ASSERT_EQ(pbtb.stats.counter("pbtb.lookups"), ref.lookups);
        ASSERT_EQ(pbtb.stats.counter("pbtb.hits"), ref.hits);
        ASSERT_EQ(pbtb.stats.counter("pbtb.misses"), ref.misses);
        ASSERT_EQ(pbtb.stats.counter("pbtb.insert_rejected"),
                  ref.rejected);
    });
    // The script reached every partition and every outcome.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_GT(ref.insertsBy[i], 0u) << "partition " << i;
    EXPECT_GT(ref.hits, 0u);
    EXPECT_GT(ref.misses, 0u);
}

TEST(PartitionedBtb, FullTagUnifiedBtbMatchesBruteForce)
{
    // A unified BTB with full tags: 128 sets x 4 ways, full targets.
    Btb::Config bc;
    bc.sets = 128;
    bc.ways = 4;
    bc.tagBits = 0;
    bc.offsetBits = 0;
    Btb btb(bc);
    PartitionedBtb::Config model;
    model.tagBits = 0;
    model.partitions = {{0, 128, 4}};
    PbtbReference ref(model);
    // A full tag is exact, so the key is the cap.
    ASSERT_EQ(btb.presenceCounts().bits(), BtbPresence::kMaxBits);

    runScript(btb, ref, crowdedPcs(0xf011), 0x5c41f0, 20000, [&](int step) {
        ASSERT_EQ(btb.validEntries(), ref.validIn(0)) << "step " << step;
        ASSERT_EQ(btb.stats.counter("btb.lookups"), ref.lookups);
        ASSERT_EQ(btb.stats.counter("btb.hits"), ref.hits);
        ASSERT_EQ(btb.stats.counter("btb.misses"), ref.misses);
        ASSERT_EQ(btb.stats.counter("btb.inserts") +
                      btb.stats.counter("btb.updates"),
                  ref.insertsBy[0])
            << "step " << step;
    });
    EXPECT_GT(ref.hits, 0u);
    EXPECT_GT(ref.misses, 0u);
    EXPECT_GT(btb.stats.counter("btb.evictions"), 0u);
}

TEST(PartitionedBtbDeath, PresenceBucketThatCouldOverflowIsRejected)
{
    // 2^17 sets x 64 ways with a full tag: a 15-bit bucket spans 4
    // sets, up to 256 entries, one more than a byte counts. Rejected
    // before any table is allocated.
    PartitionedBtb::Config c;
    c.tagBits = 0;
    c.partitions = {{0, 1u << 17, 64}};
    EXPECT_DEATH({ PartitionedBtb p(c); }, "overflow");
}
