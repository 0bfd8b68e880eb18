/**
 * Contract tests for the set-associative LRU table under the cache,
 * BTB, FTB, TLBs and MANA table: invalid ways fill before any
 * eviction (even when they hold stale stamps), ties go to the first
 * way, find() returns the first valid way holding the tag, the kNoTag
 * sentinel cannot be filled, and a randomized differential test checks
 * every lookup, the victim and the valid count after every step
 * against a brute-force recency list.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "common/set_assoc.hh"

using namespace fdip;

namespace
{

using Table = SetAssocTable<SetAssocEntry>;

unsigned
wayOf(Table &t, std::size_t set, const SetAssocEntry &e)
{
    return unsigned(&e - &t.way(set, 0));
}

/** Fill the victim of @p set with @p tag and make it MRU. */
SetAssocEntry &
fill(Table &t, std::size_t set, std::uint64_t tag)
{
    SetAssocEntry &v = t.victim(set);
    t.fill(v, tag);
    t.touch(v);
    return v;
}

/**
 * Reference model: per set, the ways' valid bits and tags plus a
 * recency list of way indices, least recent first. Never-touched
 * ways share the initial stamp, so they start at the front in way
 * order; a touch moves the way to the back. Invalidating a way leaves
 * its place in the list alone (its stamp is stale, not reset).
 */
class Reference
{
  public:
    Reference(unsigned sets, unsigned ways)
        : ways(ways), valid(sets, std::vector<bool>(ways, false)),
          tags(sets, std::vector<std::uint64_t>(ways, 0)), order(sets)
    {
        for (auto &list : order) {
            for (unsigned w = 0; w < ways; ++w)
                list.push_back(w);
        }
    }

    int
    find(std::size_t set, std::uint64_t tag) const
    {
        for (unsigned w = 0; w < ways; ++w) {
            if (valid[set][w] && tags[set][w] == tag)
                return int(w);
        }
        return -1;
    }

    void
    touch(std::size_t set, unsigned w)
    {
        auto &list = order[set];
        list.erase(std::find(list.begin(), list.end(), w));
        list.push_back(w);
    }

    unsigned
    victim(std::size_t set) const
    {
        for (unsigned w = 0; w < ways; ++w) {
            if (!valid[set][w])
                return w;
        }
        return order[set].front();
    }

    unsigned
    validCount() const
    {
        unsigned n = 0;
        for (const auto &set : valid)
            n += unsigned(std::count(set.begin(), set.end(), true));
        return n;
    }

    unsigned ways;
    std::vector<std::vector<bool>> valid;
    std::vector<std::vector<std::uint64_t>> tags;
    std::vector<std::vector<unsigned>> order;
};

/** The first way of @p set that valid() and tag() say holds @p tag. */
int
bruteForceFind(Table &t, std::size_t set, std::uint64_t tag)
{
    for (unsigned w = 0; w < t.ways(); ++w) {
        const SetAssocEntry &e = t.way(set, w);
        if (t.valid(e) && t.tag(e) == tag)
            return int(w);
    }
    return -1;
}

/**
 * Random find/touch/fill/fill-without-touch/invalidate scripts over
 * several geometries. With @p plant_duplicates, a fifth step fills a
 * random way with the drawn tag whether or not the set already holds
 * it, so sets carry duplicate tags and find() must pick the first.
 * After every step every set's victim, the valid count, and find() of
 * every tag in every set match the reference and a brute-force scan.
 */
void
runDifferential(bool plant_duplicates, std::uint64_t seed)
{
    struct Geometry
    {
        unsigned sets;
        unsigned ways;
    };
    const Geometry geometries[] = {{1, 1}, {1, 4}, {4, 1}, {2, 3},
                                   {8, 2}, {4, 8}};
    Rng rng(seed);
    for (const Geometry &g : geometries) {
        SCOPED_TRACE(testing::Message() << g.sets << " sets x " << g.ways
                                        << " ways");
        Table t(g.sets, g.ways);
        Reference ref(g.sets, g.ways);
        // Few enough tags that sets fill, overflow and hit again.
        std::uint64_t tags = 2 * std::uint64_t(g.ways) + 1;
        for (int step = 0; step < 4000; ++step) {
            std::size_t set = rng.below(g.sets);
            std::uint64_t tag = rng.below(tags);
            SetAssocEntry *e = t.find(set, tag);
            int rw = ref.find(set, tag);
            ASSERT_EQ(e == nullptr, rw < 0) << "step " << step;
            if (e != nullptr) {
                ASSERT_EQ(wayOf(t, set, *e), unsigned(rw));
            }
            switch (rng.below(plant_duplicates ? 5 : 4)) {
              case 0: // lookup: touch on hit
                if (e != nullptr) {
                    t.touch(*e);
                    ref.touch(set, unsigned(rw));
                }
                break;
              case 1: // fill: refresh a hit, else replace the victim
                if (e == nullptr) {
                    unsigned v = ref.victim(set);
                    e = &t.victim(set);
                    t.fill(*e, tag);
                    ref.valid[set][v] = true;
                    ref.tags[set][v] = tag;
                    rw = int(v);
                }
                t.touch(*e);
                ref.touch(set, unsigned(rw));
                break;
              case 2: // fill without a touch: keeps the old stamp
                if (e == nullptr) {
                    unsigned v = ref.victim(set);
                    e = &t.victim(set);
                    t.fill(*e, tag);
                    ref.valid[set][v] = true;
                    ref.tags[set][v] = tag;
                }
                break;
              case 3: // invalidate
                if (e != nullptr) {
                    t.invalidate(*e);
                    ref.valid[set][unsigned(rw)] = false;
                }
                break;
              case 4: { // plant: fill any way, duplicates allowed
                auto w = unsigned(rng.below(g.ways));
                t.fill(t.way(set, w), tag);
                ref.valid[set][w] = true;
                ref.tags[set][w] = tag;
                if (rng.below(2) == 0) {
                    t.touch(t.way(set, w));
                    ref.touch(set, w);
                }
                break;
              }
            }
            for (std::size_t s = 0; s < g.sets; ++s) {
                ASSERT_EQ(wayOf(t, s, t.victim(s)), ref.victim(s))
                    << "step " << step << ", set " << s;
                for (std::uint64_t tg = 0; tg < tags; ++tg) {
                    const SetAssocEntry *found = t.find(s, tg);
                    int want = ref.find(s, tg);
                    ASSERT_EQ(bruteForceFind(t, s, tg), want)
                        << "step " << step << ", set " << s << ", tag "
                        << tg;
                    ASSERT_EQ(found == nullptr ? -1
                                               : int(wayOf(t, s, *found)),
                              want)
                        << "step " << step << ", set " << s << ", tag "
                        << tg;
                }
            }
            ASSERT_EQ(t.validCount(), ref.validCount()) << "step " << step;
        }
    }
}

} // namespace

TEST(SetAssoc, GeometryAndEmptyTable)
{
    Table t(4, 2);
    EXPECT_EQ(t.sets(), 4u);
    EXPECT_EQ(t.ways(), 2u);
    EXPECT_EQ(t.validCount(), 0u);
    EXPECT_EQ(t.find(0, 0), nullptr);
    EXPECT_EQ(wayOf(t, 3, t.victim(3)), 0u);
}

TEST(SetAssoc, InvalidWaysFillBeforeAnyEviction)
{
    Table t(2, 4);
    for (std::uint64_t tag = 0; tag < 4; ++tag) {
        SetAssocEntry &e = fill(t, 1, tag);
        EXPECT_EQ(wayOf(t, 1, e), unsigned(tag));
    }
    EXPECT_EQ(t.validCount(), 4u);
    // Full: the least recently used way goes, and a touch saves it.
    EXPECT_EQ(wayOf(t, 1, t.victim(1)), 0u);
    t.touch(*t.find(1, 0));
    EXPECT_EQ(wayOf(t, 1, t.victim(1)), 1u);
    // The other set is untouched.
    EXPECT_EQ(wayOf(t, 0, t.victim(0)), 0u);
}

TEST(SetAssoc, InvalidatedWayKeepsItsStampButRefillsFirst)
{
    Table t(1, 4);
    for (std::uint64_t tag = 0; tag < 4; ++tag)
        fill(t, 0, tag);
    // Way 3 holds the newest stamp; invalidating it leaves the stamp
    // stale, yet it is refilled ahead of the LRU way 0.
    SetAssocEntry *e = t.find(0, 3);
    ASSERT_NE(e, nullptr);
    std::uint64_t stamp = e->lruStamp;
    t.invalidate(*e);
    EXPECT_FALSE(t.valid(*e));
    EXPECT_EQ(t.tag(*e), Table::kNoTag);
    EXPECT_EQ(e->lruStamp, stamp);
    EXPECT_EQ(t.validCount(), 3u);
    EXPECT_EQ(t.find(0, 3), nullptr);
    EXPECT_EQ(wayOf(t, 0, t.victim(0)), 3u);
}

TEST(SetAssoc, EqualStampsEvictTheFirstWay)
{
    Table t(1, 4);
    // Valid but never touched: every stamp is the initial one.
    for (unsigned w = 0; w < 4; ++w)
        t.fill(t.way(0, w), w);
    EXPECT_EQ(wayOf(t, 0, t.victim(0)), 0u);
    t.touch(t.way(0, 0));
    EXPECT_EQ(wayOf(t, 0, t.victim(0)), 1u);
}

TEST(SetAssoc, TouchOrdersTheSet)
{
    Table t(1, 3);
    for (std::uint64_t tag = 0; tag < 3; ++tag)
        fill(t, 0, tag);
    t.touch(*t.find(0, 0));
    t.touch(*t.find(0, 1));
    // Recency is now 2, 0, 1 (least recent first).
    EXPECT_EQ(wayOf(t, 0, t.victim(0)), 2u);
    t.touch(*t.find(0, 2));
    EXPECT_EQ(wayOf(t, 0, t.victim(0)), 0u);
}

TEST(SetAssoc, OneSetAndOneWay)
{
    Table direct(4, 1); // direct-mapped: the only way is the victim
    fill(direct, 2, 7);
    EXPECT_EQ(&direct.victim(2), direct.find(2, 7));
    fill(direct, 2, 9);
    EXPECT_EQ(direct.find(2, 7), nullptr);
    EXPECT_NE(direct.find(2, 9), nullptr);
    EXPECT_EQ(direct.validCount(), 1u);

    Table single(1, 1);
    EXPECT_EQ(single.validCount(), 0u);
    fill(single, 0, 5);
    EXPECT_EQ(single.validCount(), 1u);
    EXPECT_EQ(&single.victim(0), single.find(0, 5));
    const Table &view = single;
    EXPECT_EQ(view.find(0, 5), &single.way(0, 0));
    EXPECT_EQ(view.find(0, 6), nullptr);
}

TEST(SetAssoc, FindReturnsTheFirstWayOfADuplicateTag)
{
    Table t(2, 4);
    // Owners never fill a tag twice into one set, but the row scan
    // must still resolve a duplicate to the first valid way.
    t.fill(t.way(1, 3), 7);
    EXPECT_EQ(t.find(1, 7), &t.way(1, 3));
    t.fill(t.way(1, 1), 7);
    EXPECT_EQ(t.find(1, 7), &t.way(1, 1));
    t.fill(t.way(1, 0), 7);
    EXPECT_EQ(t.find(1, 7), &t.way(1, 0));
    t.invalidate(t.way(1, 0));
    EXPECT_EQ(t.find(1, 7), &t.way(1, 1));
    t.invalidate(t.way(1, 1));
    EXPECT_EQ(t.find(1, 7), &t.way(1, 3));
    EXPECT_EQ(t.find(0, 7), nullptr);
    const Table &view = t;
    EXPECT_EQ(view.find(1, 7), &t.way(1, 3));
}

TEST(SetAssoc, MatchesBruteForceRecencyList)
{
    runDifferential(false, 0x5e7a550c);
}

TEST(SetAssoc, DuplicateTagScriptsMatchBruteForce)
{
    runDifferential(true, 0xd0b1e7a9);
}

TEST(SetAssocDeath, FillingTheSentinelIsRejected)
{
    Table t(2, 2);
    EXPECT_DEATH(t.fill(t.way(0, 1), Table::kNoTag), "kNoTag");
}
