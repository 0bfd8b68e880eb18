/**
 * @file host_probe.cc
 * The host-speed probe (host_probe.hh).
 */

#include "host_probe.hh"

#include <cstdint>
#include <ctime>

namespace perfbench
{

namespace
{

/** Iterations of one probe pass: about 7 ms on the reference host. */
constexpr int kProbeIters = 3000000;

/** Keeps the chains' results alive past the timed loop. */
volatile std::uint64_t probeSink;

inline void
step(std::uint64_t &v)
{
    v = v * 6364136223846793005ull + 1442695040888963407ull;
    v ^= v >> 13;
}

} // namespace

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
probeSeconds()
{
    std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
    double t0 = cpuSeconds();
    for (int i = 0; i < kProbeIters; ++i) {
        step(a);
        step(b);
        step(c);
        step(d);
        step(e);
        step(f);
        // Keeps the chains scalar and in registers: no vectorising, no
        // spilling to memory, whatever the compiler version.
        __asm__ volatile(""
                         : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e),
                           "+r"(f));
    }
    double t1 = cpuSeconds();
    probeSink = a ^ b ^ c ^ d ^ e ^ f;
    return t1 - t0;
}

} // namespace perfbench
