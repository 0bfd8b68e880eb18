/**
 * Scheme-conformance battery: every registered prefetch scheme —
 * current and future — is run through one shared set of contracts:
 *
 *   - tick-skip bit-parity (quiescence protocol),
 *   - obs-on/obs-off parity (telemetry is passive),
 *   - fingerprint-axis distinctness (the result cache can't confuse
 *     schemes or knob settings),
 *   - warmup-window stat identities (attribution bookkeeping),
 *   - multi-core N=1 bit-identity (the scale-out machine degenerates
 *     to the classic one).
 *
 * The parameter source is allPrefetchSchemes() plus the per-scheme
 * knob registry below: adding a scheme to the enum without a registry
 * line fails RegistryCoversEveryScheme, so a new scheme cannot ship
 * without full conformance coverage.
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/presets.hh"
#include "sim/report.hh"
#include "sim/runner.hh"

using namespace fdip;

namespace
{

struct SchemeCase
{
    PrefetchScheme scheme;
    /** A scheme-private knob that must move the fingerprint. */
    const char *knobName;
    std::function<void(SimConfig &)> knobTweak;
};

/** One line per registered scheme — this is the registry the issue
 *  tracker means by "future schemes get coverage by adding one line". */
const std::vector<SchemeCase> &
registry()
{
    static const std::vector<SchemeCase> cases = {
        {PrefetchScheme::None, "ftqEntries",
         [](SimConfig &c) { c.ftqEntries = 48; }},
        {PrefetchScheme::Nlp, "nlp.degree",
         [](SimConfig &c) { c.nlp.degree = 3; }},
        {PrefetchScheme::StreamBuffer, "sb.numBuffers",
         [](SimConfig &c) { c.sb.numBuffers = 2; }},
        {PrefetchScheme::FdpNone, "fdp.scanWidth",
         [](SimConfig &c) { c.fdp.scanWidth = 5; }},
        {PrefetchScheme::FdpEnqueue, "fdp.piqEntries",
         [](SimConfig &c) { c.fdp.piqEntries = 12; }},
        {PrefetchScheme::FdpEnqueueAggressive, "fdp.issueWidth",
         [](SimConfig &c) { c.fdp.issueWidth = 3; }},
        {PrefetchScheme::FdpRemove, "fdp.recentFilterEntries",
         [](SimConfig &c) { c.fdp.recentFilterEntries = 12; }},
        {PrefetchScheme::FdpIdeal, "fdp.flushPiqOnRedirect",
         [](SimConfig &c) { c.fdp.flushPiqOnRedirect = false; }},
        {PrefetchScheme::Oracle, "oracle.lookaheadInsts",
         [](SimConfig &c) { c.oracle.lookaheadInsts = 96; }},
        {PrefetchScheme::Mana, "mana.regionBlocks",
         [](SimConfig &c) { c.mana.regionBlocks = 16; }},
        {PrefetchScheme::ShadowBtb, "shadow.bogusNoiseDenom",
         [](SimConfig &c) { c.shadow.bogusNoiseDenom = 64; }},
    };
    return cases;
}

SimConfig
smallConfig(PrefetchScheme scheme)
{
    SimConfig cfg = makeBaselineConfig("gcc", scheme);
    cfg.warmupInsts = 3 * 1000;
    cfg.measureInsts = 12 * 1000;
    return cfg;
}

std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::size_t i = 0, j = 0, line = 1;
    while (i < a.size() && j < b.size()) {
        std::size_t ae = a.find('\n', i);
        std::size_t be = b.find('\n', j);
        std::string la = a.substr(i, ae - i);
        std::string lb = b.substr(j, be - j);
        if (la != lb) {
            return "line " + std::to_string(line) + ":\n  a: " + la +
                "\n  b: " + lb;
        }
        if (ae == std::string::npos || be == std::string::npos)
            break;
        i = ae + 1;
        j = be + 1;
        ++line;
    }
    return "(no line diff found)";
}

std::string
tmpPath(const std::string &tag)
{
    std::string path = ::testing::TempDir() + "fdip-conf-" + tag;
    std::remove(path.c_str());
    return path;
}

class SchemeConformance : public ::testing::TestWithParam<std::size_t>
{
  protected:
    const SchemeCase &c() const { return registry()[GetParam()]; }
};

} // namespace

TEST(SchemeConformanceRegistry, RegistryCoversEveryScheme)
{
    const auto &all = allPrefetchSchemes();
    ASSERT_EQ(registry().size(), all.size())
        << "every scheme in allPrefetchSchemes() needs exactly one "
        << "conformance-registry line";
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(registry()[i].scheme, all[i])
            << "registry()[" << i << "] out of order vs "
            << schemeName(all[i]);
    }
}

TEST_P(SchemeConformance, TickSkipBitParity)
{
    SimConfig fast = smallConfig(c().scheme);
    fast.forceTick = false;
    SimConfig slow = smallConfig(c().scheme);
    slow.forceTick = true;
    std::string a = serializeResults(simulate(fast));
    std::string b = serializeResults(simulate(slow));
    ASSERT_EQ(a, b) << schemeName(c().scheme) << ": " << firstDiff(a, b);
}

TEST_P(SchemeConformance, ObsOnOffParity)
{
    SimConfig plain = smallConfig(c().scheme);
    SimConfig obs = smallConfig(c().scheme);
    std::string tag = schemeName(c().scheme);
    obs.obs.samplesPath = tmpPath(tag + ".jsonl");
    obs.obs.tracePath = tmpPath(tag + "-trace.json");
    obs.obs.sampleIntervalCycles = 500;
    std::string a = serializeResults(simulate(plain));
    std::string b = serializeResults(simulate(obs));
    ASSERT_EQ(a, b) << schemeName(c().scheme)
                    << " (telemetry perturbed the simulation): "
                    << firstDiff(a, b);
    std::remove(obs.obs.samplesPath.c_str());
    std::remove(obs.obs.tracePath.c_str());
}

TEST_P(SchemeConformance, FingerprintKnobAxis)
{
    SimConfig base = smallConfig(c().scheme);
    SimConfig tweaked = smallConfig(c().scheme);
    c().knobTweak(tweaked);
    EXPECT_NE(base.fingerprint(), tweaked.fingerprint())
        << schemeName(c().scheme) << ": knob " << c().knobName
        << " does not reach SimConfig::fingerprint() — the result "
        << "cache would alias its settings";
    // Telemetry must NOT reach the fingerprint (cache reuse across
    // instrumented and plain runs is deliberate).
    SimConfig obs = smallConfig(c().scheme);
    obs.obs.samplesPath = "/tmp/never-written.jsonl";
    EXPECT_EQ(base.fingerprint(), obs.fingerprint());
}

TEST_P(SchemeConformance, WarmupWindowStatIdentities)
{
    SimResults r = simulate(smallConfig(c().scheme));
    const char *name = schemeName(c().scheme);

    // Attribution identities over the measurement window.
    EXPECT_DOUBLE_EQ(r.stats.value("pfattr.timely"),
                     r.stats.value("mem.pfbuf_hits") +
                         r.stats.value("mem.streambuf_hits"))
        << name;
    EXPECT_DOUBLE_EQ(r.stats.value("pfattr.late"),
                     r.stats.value("mem.inflight_prefetch_merges"))
        << name;
    EXPECT_EQ(static_cast<double>(r.pfTimeliness.count()),
              r.stats.value("pfattr.timely"))
        << name;
    // One FTQ-occupancy sample per measured cycle, skipped or ticked.
    EXPECT_EQ(r.ftqOccupancy.count(), r.cycles) << name;

    // Coverage is a true fraction (useful / (useful + misses)).
    // Accuracy/timely/late are per-*issued* ratios and may slightly
    // exceed 1 when warmup-issued prefetches are consumed inside the
    // measurement window (oracle does this), so only non-negativity
    // and a sanity ceiling hold for them.
    EXPECT_GE(r.prefetchCoverage, 0.0) << name;
    EXPECT_LE(r.prefetchCoverage, 1.0) << name;
    for (double v : {r.prefetchAccuracy, r.prefetchTimely,
                     r.prefetchLate}) {
        EXPECT_GE(v, 0.0) << name;
        EXPECT_LE(v, 2.0) << name;
    }
    EXPECT_GT(r.ipc, 0.0) << name;
}

TEST_P(SchemeConformance, MultiCoreN1BitIdentity)
{
    SimConfig classic = smallConfig(c().scheme);
    SimConfig n1 = smallConfig(c().scheme);
    applyMultiCore(n1, 1);
    std::string a = serializeResults(simulate(classic));
    std::string b = serializeResults(simulate(n1));
    ASSERT_EQ(a, b) << schemeName(c().scheme)
                    << " (1-core machine diverged from classic): "
                    << firstDiff(a, b);
}

TEST(SchemeConformanceRegistry, SchemeAxisIsPairwiseDistinct)
{
    // Same workload and knobs, different scheme => different
    // fingerprint, for every registered pair.
    const auto &all = allPrefetchSchemes();
    for (std::size_t i = 0; i < all.size(); ++i) {
        for (std::size_t j = i + 1; j < all.size(); ++j) {
            SimConfig a = smallConfig(all[i]);
            SimConfig b = smallConfig(all[j]);
            EXPECT_NE(a.fingerprint(), b.fingerprint())
                << schemeName(all[i]) << " vs " << schemeName(all[j]);
        }
    }
}

TEST(SchemeConformanceRegistry, NamesRoundTripThroughRegistry)
{
    // Command-line front ends parse schemes with schemeFromName(), so
    // every registered scheme is reachable by its printed name.
    for (PrefetchScheme s : allPrefetchSchemes()) {
        auto parsed = schemeFromName(schemeName(s));
        ASSERT_TRUE(parsed.has_value()) << schemeName(s);
        EXPECT_EQ(*parsed, s);
    }
    EXPECT_FALSE(schemeFromName("no-such-scheme").has_value());
    EXPECT_FALSE(schemeFromName("").has_value());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeConformance,
    ::testing::Range(std::size_t(0), registry().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        std::string n = schemeName(registry()[info.param].scheme);
        for (char &ch : n) {
            if (ch == '-')
                ch = '_';
        }
        return n;
    });
