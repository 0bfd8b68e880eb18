/**
 * @file layer_replay.hh
 * Per-layer host profile taken from outside the simulator: a replay
 * of exactly the cycles Simulator::step() runs under forced ticking,
 * calling every component through Simulator::core(i) in stepCore()'s
 * order and timing each top-level call with std::chrono::steady_clock.
 */

#ifndef FDIP_PERFBENCH_LAYER_REPLAY_HH
#define FDIP_PERFBENCH_LAYER_REPLAY_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace perfbench
{

/** The timed spans; each is one top-level call (or call sequence). */
enum class Layer
{
    Mem,      ///< MemHierarchy::tick
    Mmu,      ///< Mmu::tick
    Redirect, ///< the redirect check and its bpu/ftq/fetch/backend/pf calls
    Backend,  ///< Backend::tick
    Fetch,    ///< FetchEngine::tick
    TlbPf,    ///< TlbPrefetcher::tick
    Prefetch, ///< Prefetcher::tick, every prefetcher of the core
    Predict,  ///< Bpu::predictBlock
    Ftq,      ///< Ftq::push and Ftq::sampleOccupancy
    Retire,   ///< TraceWindow::retireUpTo
    Count,
};

constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::Count);

/**
 * Cost of one empty timed span: @c innerNs is what an empty span
 * records between its two clock reads, @c fullNs what it adds to the
 * enclosing loop.
 */
struct SpanCost
{
    double innerNs = 0.0;
    double fullNs = 0.0;
};

/** Raw steady-clock nanoseconds and call counts of one replay. */
struct LayerProfile
{
    std::array<double, kNumLayers> ns{};
    std::array<std::uint64_t, kNumLayers> calls{};
    /** The replay loop, timer overhead included, calibration excluded. */
    double loopNs = 0.0;
    /**
     * Median cost of an empty span over calibration batches run inside
     * the replay loop, so the calibration sees the same caches, clock
     * and host load as the spans it corrects.
     */
    SpanCost cost;

    std::uint64_t spans() const;
};

/**
 * Advance a freshly built, never-stepped @p sim by @p cycles cycles
 * exactly as that many Simulator::step() calls would with idle-skip
 * off, timing each layer.
 */
LayerProfile replayTraced(fdip::Simulator &sim, fdip::Cycle cycles);

/**
 * Canonical text of every component StatSet per core (the set
 * Simulator::run() collects), the SharedMem stats, each core's FTQ
 * occupancy histogram and commit count. Equal strings mean equal
 * machine state as far as any result can observe.
 */
std::string machineState(fdip::Simulator &sim);

/** Middle value of @p v (mean of the middle two; 0 when empty). */
double median(std::vector<double> v);

} // namespace perfbench

#endif // FDIP_PERFBENCH_LAYER_REPLAY_HH
