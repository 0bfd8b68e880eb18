#include "layer_replay.hh"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/logging.hh"
#include "mem/shared_mem.hh"
#include "vm/tlb_prefetcher.hh"

namespace perfbench
{

using namespace fdip;

namespace
{

using Clock = std::chrono::steady_clock;

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** One timed span. Calibration times this same code with an empty
 *  body, so the two must stay one function. */
template <typename F>
inline void
timeSpan(LayerProfile &p, Layer layer, F &&body)
{
    auto t0 = Clock::now();
    body();
    auto t1 = Clock::now();
    auto i = static_cast<std::size_t>(layer);
    p.ns[i] += nsBetween(t0, t1);
    ++p.calls[i];
}

/** Simulator::stepCore() with every top-level call timed. */
void
replayCore(Simulator::Core &c, Cycle now, LayerProfile &p)
{
    timeSpan(p, Layer::Mem, [&] { c.mem->tick(now); });
    timeSpan(p, Layer::Mmu, [&] { c.mmu->tick(now); });

    timeSpan(p, Layer::Redirect, [&] {
        if (c.fetch->redirectPending() && now >= c.fetch->redirectTime()) {
            c.bpu->redirect();
            c.ftq->flush();
            c.fetch->squash();
            c.backend->squashWrongPath();
            for (auto &pf : c.prefetchers)
                pf->onRedirect(now);
        }
    });

    timeSpan(p, Layer::Backend, [&] { c.backend->tick(now); });
    timeSpan(p, Layer::Fetch, [&] { c.fetch->tick(now); });
    if (c.tlbPf != nullptr)
        timeSpan(p, Layer::TlbPf, [&] { c.tlbPf->tick(now); });
    for (auto &pf : c.prefetchers)
        timeSpan(p, Layer::Prefetch, [&] { pf->tick(now); });

    if (!c.ftq->full()) {
        FetchBlock blk;
        timeSpan(p, Layer::Predict, [&] { blk = c.bpu->predictBlock(); });
        timeSpan(p, Layer::Ftq, [&] { c.ftq->push(blk); });
    }
    timeSpan(p, Layer::Ftq, [&] { c.ftq->sampleOccupancy(); });
}

} // namespace

std::uint64_t
LayerProfile::spans() const
{
    std::uint64_t n = 0;
    for (std::uint64_t c : calls)
        n += c;
    return n;
}

LayerProfile
replayTraced(Simulator &sim, Cycle cycles)
{
    fatal_if(sim.now() != 0, "replay needs a simulator that never stepped");
    std::vector<Simulator::Core *> cores;
    for (std::size_t i = 0; i < sim.numCores(); ++i)
        cores.push_back(&sim.core(i));
    std::size_t n = cores.size();

    // Every kCalibEvery cycles, kCalibSpans empty spans: about 0.5% of
    // the spans the replay itself times.
    constexpr Cycle kCalibEvery = 1024;
    constexpr int kCalibSpans = 64;
    std::vector<double> inner;
    std::vector<double> full;
    double calib_ns = 0.0;
    auto calibrate = [&] {
        LayerProfile empty;
        auto c0 = Clock::now();
        for (int i = 0; i < kCalibSpans; ++i)
            timeSpan(empty, Layer::Mem, [] {});
        auto c1 = Clock::now();
        inner.push_back(empty.ns[0] / kCalibSpans);
        full.push_back(nsBetween(c0, c1) / kCalibSpans);
        calib_ns += nsBetween(c0, c1);
    };

    LayerProfile p;
    auto t0 = Clock::now();
    for (Cycle now = 1; now <= cycles; ++now) {
        if (now % kCalibEvery == 1)
            calibrate();
        // Simulator::step(): round-robin service order on a
        // multi-core machine, then every core retires in id order.
        std::size_t first = n == 1 ? 0 : static_cast<std::size_t>(now % n);
        for (std::size_t k = 0; k < n; ++k)
            replayCore(*cores[(first + k) % n], now, p);
        for (Simulator::Core *c : cores) {
            timeSpan(p, Layer::Retire, [&] {
                c->trace->retireUpTo(c->backend->committed());
            });
        }
    }
    p.loopNs = nsBetween(t0, Clock::now()) - calib_ns;
    p.cost = {median(inner), median(full)};
    return p;
}

std::string
machineState(Simulator &sim)
{
    auto render = [](const StatSet &s) {
        std::string out;
        for (const auto &[name, val] : s.entries())
            out += strprintf("%s %.17g\n", name.c_str(), val);
        return out;
    };

    std::string out;
    for (std::size_t i = 0; i < sim.numCores(); ++i) {
        Simulator::Core &c = sim.core(i);
        StatSet s;
        c.mem->collectStats(s, /*include_shared=*/false);
        if (c.mmu->enabled())
            c.mmu->collectStats(s);
        if (c.tlbPf != nullptr)
            s.merge(c.tlbPf->stats);
        s.merge(c.bpu->stats);
        if (c.bpu->ftb())
            s.merge(c.bpu->ftb()->stats);
        if (c.bpu->btb())
            s.merge(c.bpu->btb()->stats);
        s.merge(c.ftq->stats);
        s.merge(c.fetch->stats);
        s.merge(c.backend->stats);
        for (const auto &pf : c.prefetchers)
            s.merge(pf->stats);

        out += strprintf("core %zu committed %llu\n", i,
                         static_cast<unsigned long long>(
                             c.backend->committed()));
        out += render(s);
        const Histogram &occ = c.ftq->occupancyHist();
        out += "ftq_occupancy";
        for (std::size_t v = 0; v < occ.numBuckets(); ++v)
            out += strprintf(" %llu", static_cast<unsigned long long>(
                                          occ.bucket(v)));
        out += "\n";
    }
    StatSet shared;
    sim.sharedMem().collectStats(shared);
    out += "shared\n" + render(shared);
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench
