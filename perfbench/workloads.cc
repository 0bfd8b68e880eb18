#include "workloads.hh"

#include <stdexcept>

#include "sim/presets.hh"

namespace perfbench
{

using namespace fdip;

namespace
{

/** Warmup and measured instructions per simulation (per core). */
struct Length
{
    std::uint64_t warmup;
    std::uint64_t measure;
};

constexpr Length kTiny{2000, 5000};

void
setLength(SimConfig &cfg, Length full, bool tiny)
{
    Length len = tiny ? kTiny : full;
    cfg.warmupInsts = len.warmup;
    cfg.measureInsts = len.measure;
}

/**
 * The seed picks where the measured region starts in the canonical
 * program's instruction stream: a fast-forward of up to 31.5 Ki
 * instructions. It does not reseed program synthesis (seedOffset):
 * each synthesis seed is a different program, and across seedOffset
 * 0..9 gcc's L1-I MPKI ranges from 4 to 57, so per-seed medians would
 * measure the program drawn instead of the simulator.
 */
std::uint64_t
seedSkip(std::uint64_t seed, bool tiny)
{
    return tiny ? seed % 64 : (seed % 64) * 512;
}

PrefetchScheme
schemeByName(const std::string &name)
{
    for (PrefetchScheme s : allPrefetchSchemes()) {
        if (name == schemeName(s))
            return s;
    }
    throw std::invalid_argument("zoo scheme '" + name +
                                "' is not registered");
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fdp_gcc", "fdipx_vm_4core", "zoo_gcc"};
    return names;
}

const std::vector<std::string> &
zooSchemeNames()
{
    static const std::vector<std::string> names = {
        "none",        "nlp",        "stream",           "fdp-nofilter",
        "fdp-enqueue", "fdp-enqueue-aggr", "fdp-remove", "fdp-ideal",
        "oracle",      "mana",       "shadow-btb"};
    return names;
}

std::vector<SimConfig>
makeWorkload(const std::string &name, std::uint64_t seed, bool tiny)
{
    std::vector<SimConfig> configs;
    auto add = [&](SimConfig cfg, Length len) {
        setLength(cfg, len, tiny);
        cfg.skipInsts = seedSkip(seed, tiny);
        configs.push_back(std::move(cfg));
    };

    if (name == "fdp_gcc") {
        add(makeBaselineConfig("gcc", PrefetchScheme::FdpRemove),
            {200000, 1000000});
    } else if (name == "fdipx_vm_4core") {
        SimConfig cfg = makeBaselineConfig("gcc", PrefetchScheme::FdpRemove);
        applyPartitionedBudget(cfg, 2048);
        applyVmConfig(cfg, TlbPrefetchPolicy::Wait, PageMapKind::Scrambled,
                      64);
        applyTlbHierarchy(cfg, 512, 2, true);
        applyMultiCore(cfg, 4, {});
        add(cfg, {50000, 250000});
    } else if (name == "zoo_gcc") {
        for (const std::string &scheme : zooSchemeNames())
            add(makeBaselineConfig("gcc", schemeByName(scheme)),
                {50000, 300000});
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return configs;
}

} // namespace perfbench
