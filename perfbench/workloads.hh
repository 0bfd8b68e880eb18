/**
 * @file workloads.hh
 * The benchmark's fixed machines, built only from the public presets
 * (README.md gives the reason for each).
 */

#ifndef FDIP_PERFBENCH_WORKLOADS_HH
#define FDIP_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace perfbench
{

/** Every workload, in the order the self-check visits them. */
const std::vector<std::string> &workloadNames();

/**
 * The zoo's schemes, pinned by name so a newly registered scheme does
 * not silently change what the workload measures.
 */
const std::vector<std::string> &zooSchemeNames();

/**
 * The SimConfigs one repetition of workload @p name simulates back to
 * back. @p seed sets the fast-forward before the measured region (see
 * workloads.cc). With @p tiny the run lengths shrink to a few thousand
 * instructions (self-check only: metrics are emitted but not
 * meaningful). Throws std::invalid_argument on an unknown name.
 */
std::vector<fdip::SimConfig> makeWorkload(const std::string &name,
                                          std::uint64_t seed, bool tiny);

} // namespace perfbench

#endif // FDIP_PERFBENCH_WORKLOADS_HH
