/**
 * @file
 * Implementation of the baseline platform models.
 */

#include "perfmodel/platforms.hh"

#include <algorithm>

#include "support/logging.hh"

namespace robox::perfmodel
{

double
PlatformSpec::parallelGflops() const
{
    double lanes = 1.0 + multicoreScaling * (cores - 1);
    return lanes * clockGhz * flopsPerCyclePerCore * utilization;
}

double
predictSeconds(const PlatformSpec &platform,
               const WorkloadProfile &workload)
{
    double cache_bytes = platform.cacheMb * 1024.0 * 1024.0;
    // Fraction of the working set that overflows the last-level cache;
    // the penalty phases in gradually as the resident set grows.
    double spill_fraction =
        workload.workingSetBytes > cache_bytes
            ? (workload.workingSetBytes - cache_bytes) /
                  workload.workingSetBytes
            : 0.0;

    double eff_gflops = platform.parallelGflops();
    if (!platform.isGpu) {
        eff_gflops *= 1.0 - spill_fraction *
                                (1.0 - platform.cacheDegradation);
    }

    double compute_s =
        workload.flopsPerIteration / (eff_gflops * 1e9);

    // Memory: only the overflowing share of the traffic hits DRAM.
    double memory_s = spill_fraction * workload.bytesPerIteration /
                      (platform.dramBandwidthGBs * 1e9);

    // GPUs additionally pay a synchronization cost for every serial
    // Riccati stage step plus a per-iteration launch overhead.
    double overhead_s = 0.0;
    if (platform.isGpu) {
        overhead_s = (platform.syncPerStageUs * workload.horizon +
                      platform.launchOverheadUs) *
                     1e-6;
    }

    double per_iteration = std::max(compute_s, memory_s) + overhead_s;
    return workload.iterations * per_iteration;
}

const std::vector<PlatformSpec> &
allPlatforms()
{
    static const std::vector<PlatformSpec> list = {
        {.name = "ARM Cortex A57",
         .cores = 4,
         .clockGhz = 2.0,
         .flopsPerCyclePerCore = 4.0, // 2x64-bit NEON FMA.
         .utilization = 0.0215,
         .multicoreScaling = 0.25,
         .dramBandwidthGBs = 12.0,
         .cacheMb = 2.0,
         .cacheDegradation = 0.42,
         .busyPowerWatts = 2.5},
        {.name = "Intel Xeon E3",
         .cores = 4,
         .clockGhz = 3.6,
         .flopsPerCyclePerCore = 16.0, // AVX2 FMA, 4x64-bit, 2 ports.
         .utilization = 0.0111,
         .multicoreScaling = 0.30, // SMT helps the stage-parallel phases.
         .dramBandwidthGBs = 21.0,
         .cacheMb = 8.0,
         .cacheDegradation = 0.5,
         .busyPowerWatts = 36.0},
        {.name = "Tegra X2",
         .isGpu = true,
         .cores = 256,
         .clockGhz = 0.854,
         .flopsPerCyclePerCore = 2.0,
         .utilization = 0.0069,
         .multicoreScaling = 1.0, // Occupancy is folded into utilization.
         .dramBandwidthGBs = 40.0,
         .cacheMb = 2.0,
         .launchOverheadUs = 1.5,
         .syncPerStageUs = 0.1,
         .busyPowerWatts = 7.5},
        {.name = "GTX 650 Ti",
         .isGpu = true,
         .cores = 768,
         .clockGhz = 0.928,
         .flopsPerCyclePerCore = 2.0,
         .utilization = 0.0048,
         .multicoreScaling = 1.0,
         .dramBandwidthGBs = 80.0,
         .cacheMb = 1.0,
         .launchOverheadUs = 1.5,
         .syncPerStageUs = 0.1,
         .busyPowerWatts = 110.0},
        {.name = "Tesla K40",
         .isGpu = true,
         .cores = 2880,
         .clockGhz = 0.875,
         .flopsPerCyclePerCore = 2.0,
         .utilization = 0.008,
         .multicoreScaling = 1.0,
         .dramBandwidthGBs = 230.0,
         .cacheMb = 1.5,
         .launchOverheadUs = 1.5,
         .syncPerStageUs = 0.1,
         .busyPowerWatts = 235.0},
    };
    return list;
}

} // namespace robox::perfmodel
