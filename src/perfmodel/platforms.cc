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

double
predictJoules(const PlatformSpec &platform,
              const WorkloadProfile &workload)
{
    return predictSeconds(platform, workload) * platform.busyPowerWatts;
}

namespace
{

PlatformSpec
makeArmA57()
{
    PlatformSpec p;
    p.name = "ARM Cortex A57";
    p.cores = 4;
    p.clockGhz = 2.0;
    p.flopsPerCyclePerCore = 4.0; // 2x64-bit NEON FMA.
    p.utilization = 0.0215;
    p.multicoreScaling = 0.25;
    p.dramBandwidthGBs = 12.0;
    p.cacheMb = 2.0;
    p.cacheDegradation = 0.42;
    p.busyPowerWatts = 2.5;
    return p;
}

PlatformSpec
makeXeonE3()
{
    PlatformSpec p;
    p.name = "Intel Xeon E3";
    p.cores = 4;
    p.clockGhz = 3.6;
    p.flopsPerCyclePerCore = 16.0; // AVX2 FMA, 4x64-bit, 2 ports.
    p.utilization = 0.0111;
    p.multicoreScaling = 0.30; // SMT helps the stage-parallel phases.
    p.dramBandwidthGBs = 21.0;
    p.cacheMb = 8.0;
    p.cacheDegradation = 0.5;
    p.busyPowerWatts = 36.0;
    return p;
}

PlatformSpec
makeTegraX2()
{
    PlatformSpec p;
    p.name = "Tegra X2";
    p.isGpu = true;
    p.cores = 256;
    p.clockGhz = 0.854;
    p.flopsPerCyclePerCore = 2.0;
    p.utilization = 0.0069;
    p.multicoreScaling = 1.0; // Occupancy is folded into utilization.
    p.dramBandwidthGBs = 40.0;
    p.cacheMb = 2.0;
    p.launchOverheadUs = 1.5;
    p.syncPerStageUs = 0.1;
    p.busyPowerWatts = 7.5;
    return p;
}

PlatformSpec
makeGtx650Ti()
{
    PlatformSpec p;
    p.name = "GTX 650 Ti";
    p.isGpu = true;
    p.cores = 768;
    p.clockGhz = 0.928;
    p.flopsPerCyclePerCore = 2.0;
    p.utilization = 0.0048;
    p.multicoreScaling = 1.0;
    p.dramBandwidthGBs = 80.0;
    p.cacheMb = 1.0;
    p.launchOverheadUs = 1.5;
    p.syncPerStageUs = 0.1;
    p.busyPowerWatts = 110.0;
    return p;
}

PlatformSpec
makeTeslaK40()
{
    PlatformSpec p;
    p.name = "Tesla K40";
    p.isGpu = true;
    p.cores = 2880;
    p.clockGhz = 0.875;
    p.flopsPerCyclePerCore = 2.0;
    p.utilization = 0.008;
    p.multicoreScaling = 1.0;
    p.dramBandwidthGBs = 230.0;
    p.cacheMb = 1.5;
    p.launchOverheadUs = 1.5;
    p.syncPerStageUs = 0.1;
    p.busyPowerWatts = 235.0;
    return p;
}

} // namespace

const PlatformSpec &
armA57()
{
    static const PlatformSpec p = makeArmA57();
    return p;
}

const PlatformSpec &
xeonE3()
{
    static const PlatformSpec p = makeXeonE3();
    return p;
}

const PlatformSpec &
tegraX2()
{
    static const PlatformSpec p = makeTegraX2();
    return p;
}

const PlatformSpec &
gtx650Ti()
{
    static const PlatformSpec p = makeGtx650Ti();
    return p;
}

const PlatformSpec &
teslaK40()
{
    static const PlatformSpec p = makeTeslaK40();
    return p;
}

const std::vector<PlatformSpec> &
allPlatforms()
{
    static const std::vector<PlatformSpec> list = {
        armA57(), xeonE3(), tegraX2(), gtx650Ti(), teslaK40(),
    };
    return list;
}

} // namespace robox::perfmodel
