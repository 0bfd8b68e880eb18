/**
 * @file main.cc
 * Host-speed benchmark of the simulator (README.md). One process runs
 * one workload as a closed loop with one client: one Simulator at a
 * time, in this thread, no Runner and no result cache.
 *
 *   fdip_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--digests <file>] [--git-rev <rev>]
 *                  [--tiny]
 *   fdip_perfbench --catalog
 *
 * --trace 0 times repetitions of the workload and reports the
 * end-to-end metrics; --trace 1 reports the per-layer metrics from the
 * traced replay, two untraced reference runs and the simulated
 * counters. The last stdout line is the JSON result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/build_id.hh"
#include "common/error.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "host_probe.hh"
#include "layer_replay.hh"
#include "sim/report.hh"
#include "workloads.hh"

extern char **environ;

namespace
{

using namespace fdip;
using namespace perfbench;

/** The seed whose result digests are recorded in digests.txt. */
constexpr std::uint64_t kDefaultSeed = 0;
/** Fewest repetitions a run times, whatever --seconds: end-to-end
 *  medians need a few; one traced repetition already runs four
 *  simulations per config. */
constexpr int kMinRepsEndToEnd = 3;
constexpr int kMinRepsTraced = 1;

struct MetricDef
{
    std::string name;
    std::string unit;
    std::string better;
};

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sim_minst_per_cpu_s", "Minst/s", "higher"},
        {"sim_mcyc_per_cpu_s", "Mcyc/s", "higher"},
        {"setup_s", "s", "lower"},
        {"peak_rss_mb", "MB", "lower"},
        {"sim_ipc", "inst/cyc", "higher"},
        {"sim_mpki", "miss/kinst", "lower"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"mem.tick_share", "frac", "lower"},
            {"vm.mmu_tick_share", "frac", "lower"},
            {"vm.tlbpf_tick_share", "frac", "lower"},
            {"core.backend_tick_share", "frac", "lower"},
            {"frontend.fetch_tick_share", "frac", "lower"},
            {"frontend.ftq_share", "frac", "lower"},
            {"bpu.predict_share", "frac", "lower"},
            {"bpu.predict_ns", "ns", "lower"},
            {"prefetch.tick_share", "frac", "lower"},
            {"sim.redirect_share", "frac", "lower"},
            {"trace.retire_share", "frac", "lower"},
            {"unattributed_share", "frac", "lower"},
            {"tracing_overhead", "ratio", "lower"},
            {"sim.skip_cycle_frac", "frac", "higher"},
            {"sim.skip_saved_frac", "frac", "higher"},
            {"bpu.blocks_per_kinst", "count/kinst", "lower"},
            {"bpu.wrong_path_block_frac", "frac", "lower"},
            {"frontend.ftq_occupancy_mean", "entries", "higher"},
            {"frontend.fetch_miss_stall_frac", "frac", "lower"},
            {"mem.l2bus_util", "frac", "lower"},
            {"prefetch.mshr_stall_per_kinst", "count/kinst", "lower"},
            {"prefetch.issued_per_kinst", "count/kinst", "lower"},
            {"prefetch.accuracy", "frac", "higher"},
            {"prefetch.coverage", "frac", "higher"},
            {"vm.itlb_miss_per_kinst", "count/kinst", "lower"},
            {"vm.walks_per_kinst", "count/kinst", "lower"},
        };
        for (const std::string &s : zooSchemeNames())
            d.push_back({"prefetch." + s + ".tick_ns", "ns", "lower"});
        return d;
    }();
    return defs;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool catalog = false;
    std::string digests;
    std::string gitRev = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "fdip_perfbench: %s\n"
                 "usage: fdip_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--digests <file>] "
                 "[--git-rev <rev>] [--tiny]\n"
                 "       fdip_perfbench --catalog\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (flag == "--catalog") {
            a.catalog = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string val = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = val;
            else if (flag == "--seed")
                a.seed = std::stoull(val);
            else if (flag == "--seconds")
                a.seconds = std::stod(val);
            else if (flag == "--trace")
                a.trace = std::stoi(val) != 0;
            else if (flag == "--digests")
                a.digests = val;
            else if (flag == "--git-rev")
                a.gitRev = val;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value '" + val + "' for " + flag);
        }
    }
    if (!a.catalog && a.workload.empty())
        usage("--workload is required");
    return a;
}

/**
 * Timing is refused when anything but the simulator itself could
 * shape the numbers: knobs that change the tick mode, add telemetry
 * or logging, inject faults or arm the wall watchdog, and builds with
 * assertions compiled in.
 */
void
requireHermetic()
{
    static const char *const kExact[] = {"FDIP_NO_SKIP", "FDIP_FAULT",
                                         "FDIP_SIM_TIMEOUT_S", "FDIP_LOG"};
    static const char *const kPrefix[] = {"FDIP_TRACE", "FDIP_SAMPLES"};
    for (char **e = environ; *e != nullptr; ++e) {
        std::string entry = *e;
        std::string name = entry.substr(0, entry.find('='));
        bool bad = false;
        for (const char *x : kExact)
            bad |= name == x;
        for (const char *p : kPrefix)
            bad |= name.rfind(p, 0) == 0;
        if (bad) {
            std::fprintf(stderr,
                         "fdip_perfbench: refusing to time with %s set; "
                         "unset it and rerun\n", name.c_str());
            std::exit(2);
        }
    }
#ifndef NDEBUG
    std::fprintf(stderr, "fdip_perfbench: refusing to time a build with "
                         "assertions enabled (NDEBUG unset)\n");
    std::exit(2);
#endif
}

/** Median of @p v, after printing its sample count and spread. */
double
reportMedian(const std::string &name, std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    auto at = [&](double f) {
        return v[static_cast<std::size_t>(f * (v.size() - 1) + 0.5)];
    };
    std::printf("  %-30s n=%zu min=%.4g q1=%.4g median=%.4g q3=%.4g "
                "max=%.4g\n",
                name.c_str(), v.size(), v.front(), at(0.25), median(v),
                at(0.75), v.back());
    return median(v);
}

/** Attempted / failed bookkeeping over every simulation started. */
struct Ops
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Run @p body as one operation; an exception counts a failure. */
    template <typename F>
    bool
    attempt(const std::string &what, F &&body)
    {
        ++attempted;
        try {
            body();
            return true;
        } catch (const std::exception &e) {
            fail(what + ": " + e.what());
            return false;
        }
    }

    /** An operation already counted turned out wrong. */
    void
    fail(const std::string &why)
    {
        ++failed;
        std::fprintf(stderr, "fdip_perfbench: FAILED %s\n", why.c_str());
    }
};

/** One Simulator built and run to completion. */
struct SimRun
{
    double setupCpu = 0.0;
    double runCpu = 0.0;
    /** Instructions committed by all cores, warmup included. */
    double insts = 0.0;
    SimResults r;
};

SimRun
simulate(const SimConfig &cfg, bool force_tick)
{
    SimConfig c = cfg;
    c.forceTick = force_tick;
    SimRun out;
    double t0 = cpuSeconds();
    Simulator sim(c);
    double t1 = cpuSeconds();
    out.r = sim.run();
    double t2 = cpuSeconds();
    out.setupCpu = t1 - t0;
    out.runCpu = t2 - t1;
    for (std::size_t i = 0; i < sim.numCores(); ++i)
        out.insts += static_cast<double>(sim.backend(i).committed());
    return out;
}

/** Measurement-window totals over one repetition's simulations. */
struct Tally
{
    double insts = 0.0;
    double cycles = 0.0;
    double coreCycles = 0.0;
    double misses = 0.0;
    double l2busBusy = 0.0;
    double occWeighted = 0.0;
    double occSamples = 0.0;
    StatSet stats;
    Fnv1a digest;

    void
    add(const SimResults &r, unsigned cores)
    {
        double n = static_cast<double>(r.instructions);
        double cyc = static_cast<double>(r.cycles);
        insts += n;
        cycles += cyc;
        coreCycles += cyc * cores;
        misses += r.mpki * n / 1000.0;
        l2busBusy += r.l2BusUtil * cyc;
        occWeighted += static_cast<double>(r.ftqOccupancy.weightedTotal());
        occSamples += static_cast<double>(r.ftqOccupancy.count());
        stats.merge(r.stats);
        digest.s(serializeResults(r));
    }

    double
    perKinst(const char *stat) const
    {
        return insts > 0.0 ? stats.value(stat) * 1000.0 / insts : 0.0;
    }
};

double
frac(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

using Metrics = std::map<std::string, double>;

/** The simulated counters of the per-layer catalogue. */
void
addCounterMetrics(const Tally &t, Metrics &m)
{
    const StatSet &s = t.stats;
    double issued = s.value("mem.prefetches_issued");
    double useful = s.value("pfbuf.consumed") + s.value("sb.hits") +
        s.value("mem.inflight_prefetch_merges");
    double true_misses =
        s.value("mem.demand_misses") - s.value("mem.inflight_merges");
    m["bpu.blocks_per_kinst"] = t.perKinst("bpu.blocks");
    m["bpu.wrong_path_block_frac"] =
        frac(s.value("bpu.wrong_path_blocks"), s.value("bpu.blocks"));
    m["frontend.ftq_occupancy_mean"] = frac(t.occWeighted, t.occSamples);
    m["frontend.fetch_miss_stall_frac"] =
        frac(s.value("fetch.miss_stall_cycles"), t.coreCycles);
    m["mem.l2bus_util"] = frac(t.l2busBusy, t.cycles);
    m["prefetch.mshr_stall_per_kinst"] =
        t.perKinst("mem.prefetch_mshr_stalls");
    m["prefetch.issued_per_kinst"] = t.perKinst("mem.prefetches_issued");
    m["prefetch.accuracy"] = frac(useful, issued);
    m["prefetch.coverage"] = frac(useful, useful + true_misses);
    m["vm.itlb_miss_per_kinst"] = t.perKinst("itlb.misses");
    m["vm.walks_per_kinst"] = t.perKinst("mmu.walks");
}

/** Recorded default-seed digests: "<workload> <hex>" lines. */
std::map<std::string, std::uint64_t>
readDigests(const std::string &path)
{
    std::map<std::string, std::uint64_t> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::string name;
        std::string hex;
        if (ss >> name >> hex)
            out[name] = std::stoull(hex, nullptr, 16);
    }
    return out;
}

/**
 * Output-correctness gate on one repetition's digest: identical across
 * repetitions and, for the default seed at full length, equal to the
 * recorded digest.
 */
class DigestGate
{
  public:
    explicit DigestGate(const Args &a) : args(a)
    {
        if (a.seed == kDefaultSeed && !a.tiny) {
            auto rec = readDigests(a.digests);
            auto it = rec.find(a.workload);
            if (it != rec.end())
                recorded = it->second;
            else
                missingRecord = true;
        }
    }

    /** False (and counted in @p ops) on a mismatch. */
    bool
    check(std::uint64_t d, Ops &ops)
    {
        if (!first) {
            first = d;
            std::printf("digest %s %016llx\n", args.workload.c_str(),
                        static_cast<unsigned long long>(d));
        }
        if (missingRecord) {
            ops.fail("no digest recorded for " + args.workload + " in '" +
                     args.digests + "'");
            return false;
        }
        if (d != *first) {
            ops.fail("result digest differs between repetitions");
            return false;
        }
        if (recorded && d != *recorded) {
            ops.fail(strprintf("result digest %016llx differs from the "
                               "recorded %016llx",
                               static_cast<unsigned long long>(d),
                               static_cast<unsigned long long>(*recorded)));
            return false;
        }
        return true;
    }

  private:
    const Args &args;
    std::optional<std::uint64_t> first;
    std::optional<std::uint64_t> recorded;
    bool missingRecord = false;
};

/**
 * The --seconds budget: a repetition starts only if one as long as the
 * previous still fits, so a run ends within about --seconds (after at
 * least the minimum repetitions).
 */
class Deadline
{
  public:
    using Clock = std::chrono::steady_clock;

    Deadline(double seconds, int min_reps)
        : minReps(min_reps), last(Clock::now()),
          end(last + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds)))
    {}

    /** Call once before each repetition with the number done so far. */
    bool
    more(int reps_done)
    {
        Clock::time_point now = Clock::now();
        Clock::duration rep = now - last;
        last = now;
        return reps_done < minReps || now + rep <= end;
    }

  private:
    int minReps;
    Clock::time_point last;
    Clock::time_point end;
};

/**
 * Peak resident memory of this process image. VmHWM, because
 * getrusage()'s ru_maxrss also keeps the peak of whatever process
 * exec'd this one (the Python launcher, when run through run.py).
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** --trace 0: time repetitions of the whole workload, skip mode, with
 *  each simulation's CPU time normalised by the host probe. */
Metrics
runEndToEnd(const Args &a, const std::vector<SimConfig> &configs, Ops &ops)
{
    DigestGate gate(a);
    Deadline deadline(a.seconds, kMinRepsEndToEnd);
    std::vector<double> minst, mcyc, setup, raw_minst, probe;
    Tally tally;
    double before = probeSeconds();
    for (int rep = 0; deadline.more(rep); ++rep) {
        double setup_cpu = 0.0;
        double run_cpu = 0.0;
        double raw_run_cpu = 0.0;
        double probe_cpu = 0.0;
        double insts = 0.0;
        double cycles = 0.0;
        Tally t;
        bool ok = true;
        for (const SimConfig &cfg : configs) {
            SimRun s;
            ok &= ops.attempt(schemeName(cfg.scheme), [&] {
                s = simulate(cfg, /*force_tick=*/false);
                t.add(s.r, cfg.numCores);
            });
            // Host speed during set-up: the probe just before it; during
            // run(): the mean of the probes before and after it.
            double after = probeSeconds();
            setup_cpu += s.setupCpu * kProbeReferenceSeconds / before;
            run_cpu += s.runCpu * kProbeReferenceSeconds /
                (0.5 * (before + after));
            before = after;
            raw_run_cpu += s.runCpu;
            probe_cpu += after;
            insts += s.insts;
            cycles += static_cast<double>(s.r.totalCycles);
        }
        if (!ok || !gate.check(t.digest.h, ops))
            continue;
        minst.push_back(insts / run_cpu / 1e6);
        mcyc.push_back(cycles / run_cpu / 1e6);
        setup.push_back(setup_cpu);
        raw_minst.push_back(insts / raw_run_cpu / 1e6);
        probe.push_back(probe_cpu / static_cast<double>(configs.size()));
        tally = t;
    }
    if (minst.empty())
        return {};
    // Not metrics: what the normalisation corrected for.
    reportMedian("unnormalised_minst_per_cpu_s", raw_minst);
    reportMedian("probe_s", probe);
    return {
        {"sim_minst_per_cpu_s", reportMedian("sim_minst_per_cpu_s", minst)},
        {"sim_mcyc_per_cpu_s", reportMedian("sim_mcyc_per_cpu_s", mcyc)},
        {"setup_s", reportMedian("setup_s", setup)},
        {"peak_rss_mb", peakRssMb()},
        {"sim_ipc", frac(tally.insts, tally.cycles)},
        {"sim_mpki", frac(tally.misses * 1000.0, tally.insts)},
    };
}

/** Calibrated layer times, summed over a repetition's replays. */
struct LayerTimes
{
    std::array<double, kNumLayers> ns{};
    std::array<double, kNumLayers> calls{};
    /** Traced step time with the timer's own cost taken out. */
    double totalNs = 0.0;

    void
    add(const LayerProfile &p)
    {
        for (std::size_t i = 0; i < kNumLayers; ++i) {
            double n = static_cast<double>(p.calls[i]);
            ns[i] += p.ns[i] - n * p.cost.innerNs;
            calls[i] += n;
        }
        totalNs += p.loopNs -
            static_cast<double>(p.spans()) * p.cost.fullNs;
    }

    double
    perCall(Layer l) const
    {
        auto i = static_cast<std::size_t>(l);
        return frac(ns[i], calls[i]);
    }
};

/** Each layer's share of the traced step time; they sum to 1. */
void
addShares(const LayerTimes &t, Metrics &m)
{
    double attributed = 0.0;
    for (double n : t.ns)
        attributed += n;
    auto share = [&](Layer l) {
        return frac(t.ns[static_cast<std::size_t>(l)], t.totalNs);
    };
    m["mem.tick_share"] = share(Layer::Mem);
    m["vm.mmu_tick_share"] = share(Layer::Mmu);
    m["vm.tlbpf_tick_share"] = share(Layer::TlbPf);
    m["core.backend_tick_share"] = share(Layer::Backend);
    m["frontend.fetch_tick_share"] = share(Layer::Fetch);
    m["frontend.ftq_share"] = share(Layer::Ftq);
    m["bpu.predict_share"] = share(Layer::Predict);
    m["prefetch.tick_share"] = share(Layer::Prefetch);
    m["sim.redirect_share"] = share(Layer::Redirect);
    m["trace.retire_share"] = share(Layer::Retire);
    m["unattributed_share"] = frac(t.totalNs - attributed, t.totalNs);
    m["bpu.predict_ns"] = t.perCall(Layer::Predict);
}

/**
 * --trace 1: per simulation, an untraced skip-mode run, an untraced
 * forced-tick run (same digest required), the traced replay of the
 * same cycle count and a step()-driven reference it must match.
 */
Metrics
runTraced(const Args &a, const std::vector<SimConfig> &configs, Ops &ops)
{
    DigestGate gate(a);
    Deadline deadline(a.seconds, kMinRepsTraced);
    std::vector<double> span_ns;
    std::map<std::string, std::vector<double>> series;
    Tally tally;
    for (int rep = 0; deadline.more(rep); ++rep) {
        LayerTimes times;
        std::map<std::string, LayerTimes> per_scheme;
        double skip_cpu = 0.0, tick_cpu = 0.0;
        double traced_cpu = 0.0, stepped_cpu = 0.0;
        double skipped = 0.0, total = 0.0;
        Tally t;
        bool ok = true;
        for (const SimConfig &cfg : configs) {
            const char *scheme = schemeName(cfg.scheme);
            SimRun skip;
            SimRun tick;
            ok = ok &&
                ops.attempt(std::string(scheme) + " skip run", [&] {
                    skip = simulate(cfg, /*force_tick=*/false);
                }) &&
                ops.attempt(std::string(scheme) + " forced-tick run", [&] {
                    tick = simulate(cfg, /*force_tick=*/true);
                    if (serializeResults(tick.r) != serializeResults(skip.r))
                        throw std::runtime_error(
                            "forced-tick results differ from idle-skip");
                });
            if (!ok)
                break;
            Cycle cycles = skip.r.totalCycles;
            SimConfig forced = cfg;
            forced.forceTick = true;
            LayerProfile p;
            ok = ops.attempt(std::string(scheme) + " traced replay", [&] {
                Simulator traced(forced);
                Simulator stepped(forced);
                double t0 = cpuSeconds();
                p = replayTraced(traced, cycles);
                double t1 = cpuSeconds();
                for (Cycle c = 0; c < cycles; ++c)
                    stepped.step();
                double t2 = cpuSeconds();
                if (machineState(traced) != machineState(stepped))
                    throw std::runtime_error(
                        "traced replay diverged from Simulator::step()");
                traced_cpu += t1 - t0;
                stepped_cpu += t2 - t1;
            });
            if (!ok)
                break;
            times.add(p);
            per_scheme[scheme].add(p);
            span_ns.push_back(p.cost.innerNs);
            skip_cpu += skip.runCpu;
            tick_cpu += tick.runCpu;
            skipped += static_cast<double>(skip.r.skippedCycles);
            total += static_cast<double>(skip.r.totalCycles);
            t.add(skip.r, cfg.numCores);
        }
        if (!ok || !gate.check(t.digest.h, ops))
            continue;

        Metrics m;
        addShares(times, m);
        m["tracing_overhead"] = frac(traced_cpu, stepped_cpu);
        m["sim.skip_cycle_frac"] = frac(skipped, total);
        m["sim.skip_saved_frac"] = 1.0 - frac(skip_cpu, tick_cpu);
        for (const std::string &s : zooSchemeNames())
            m["prefetch." + s + ".tick_ns"] =
                per_scheme[s].perCall(Layer::Prefetch);
        for (const auto &[name, v] : m)
            series[name].push_back(v);
        tally = t;
    }
    if (series.empty() || ops.failed > 0)
        return {};
    reportMedian("empty_span_ns", span_ns);
    Metrics out;
    for (const auto &[name, v] : series)
        out[name] = median(v);
    addCounterMetrics(tally, out);
    return out;
}

std::string
jsonMetric(const MetricDef &d, double v)
{
    return strprintf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     d.name.c_str(), v, d.unit.c_str());
}

void
printCatalog()
{
    auto list = [](const std::vector<MetricDef> &defs) {
        std::string out = "[";
        for (std::size_t i = 0; i < defs.size(); ++i) {
            out += strprintf("%s{\"name\": \"%s\", \"unit\": \"%s\", "
                             "\"better\": \"%s\"}",
                             i ? ", " : "", defs[i].name.c_str(),
                             defs[i].unit.c_str(), defs[i].better.c_str());
        }
        return out + "]";
    };
    std::string names = "[";
    for (std::size_t i = 0; i < workloadNames().size(); ++i)
        names += strprintf("%s\"%s\"", i ? ", " : "",
                           workloadNames()[i].c_str());
    std::printf("{\"workloads\": %s], \"end_to_end\": %s, "
                "\"per_layer\": %s}\n",
                names.c_str(), list(endToEndMetrics()).c_str(),
                list(perLayerMetrics()).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    if (args.catalog) {
        printCatalog();
        return 0;
    }
    requireHermetic();
    setFatalMode(FatalMode::Throw);

    std::vector<SimConfig> configs;
    try {
        configs = makeWorkload(args.workload, args.seed, args.tiny);
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    }

    std::printf("perfbench build_identity=%016llx git_rev=%s "
                "compiler=\"%s\" nproc=%u workload=%s seed=%llu "
                "seconds=%g trace=%d%s\n",
                static_cast<unsigned long long>(buildIdentity()),
                args.gitRev.c_str(), __VERSION__,
                std::thread::hardware_concurrency(), args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, args.tiny ? " tiny" : "");

    Ops ops;
    Metrics m = args.trace ? runTraced(args, configs, ops)
                           : runEndToEnd(args, configs, ops);
    const std::vector<MetricDef> &defs =
        args.trace ? perLayerMetrics() : endToEndMetrics();

    std::string json;
    for (const MetricDef &d : defs) {
        auto it = m.find(d.name);
        if (it == m.end())
            continue;
        std::printf("  %-36s %14.6g %-12s (%s is better)\n", d.name.c_str(),
                    it->second, d.unit.c_str(), d.better.c_str());
        json += (json.empty() ? "" : ", ") + jsonMetric(d, it->second);
    }
    std::printf("  %-36s %14.6g %-12s (lower is better)\n",
                "ops_failed_frac",
                frac(static_cast<double>(ops.failed),
                     static_cast<double>(ops.attempted)),
                "frac");
    bool correct = ops.failed == 0 && !m.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(ops.attempted),
                static_cast<unsigned long long>(ops.failed), json.c_str());
    return 0;
}
