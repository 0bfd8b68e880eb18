/**
 * @file host_probe.hh
 * Process CPU clock and the host-speed probe that the end-to-end
 * timings are normalised by (README.md, "Host-speed normalisation").
 */

#ifndef FDIP_PERFBENCH_HOST_PROBE_HH
#define FDIP_PERFBENCH_HOST_PROBE_HH

namespace perfbench
{

/** CPU seconds this process has used (CLOCK_PROCESS_CPUTIME_ID). */
double cpuSeconds();

/**
 * CPU seconds of one pass of a fixed integer kernel that runs no
 * simulator code and touches no memory: six independent
 * multiply-xorshift chains held in registers. Its time tracks how much
 * of the host core this process gets at the moment, and nothing a
 * change to the simulator can move.
 */
double probeSeconds();

/**
 * probeSeconds() on an uncontended core of the reference host, the
 * 4-vCPU Xeon VM of README.md. A time scaled by
 * kProbeReferenceSeconds / probeSeconds() reads roughly as the time
 * that host would take when quiet.
 */
constexpr double kProbeReferenceSeconds = 0.0074;

} // namespace perfbench

#endif // FDIP_PERFBENCH_HOST_PROBE_HH
