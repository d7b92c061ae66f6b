/**
 * @file
 * Analytic performance/power models of the five baseline platforms
 * (Table IV): ARM Cortex A57, Intel Xeon E3-1246 v3, Nvidia Tegra X2,
 * GTX 650 Ti, and Tesla K40.
 *
 * The paper measured wall-clock time of ACADO/HPMPC (CPUs) and a
 * custom cuBLAS solver (GPUs) on real hardware; that hardware is not
 * available here, so each platform is modeled with a roofline-style
 * estimate driven by the *measured* operation and byte counts of our
 * own solver. predictSeconds() charges each IPM iteration the larger
 * of two terms, plus GPU overheads:
 *
 *  - compute: every flop at parallelGflops(), the peak FLOP rate times
 *    an effective-utilization factor for small-matrix MPC kernels,
 *    with the cores beyond the first counted at multicoreScaling. On
 *    CPUs the rate falls toward cacheDegradation in proportion to the
 *    share of the working set that spills the last-level cache;
 *  - memory: the spilled share of the iteration's traffic at DRAM
 *    bandwidth;
 *  - GPUs only: a synchronization cost per Riccati stage and a
 *    per-iteration kernel-launch overhead.
 *
 * There is no separate serial term: the Riccati recursion's poor
 * parallelism lives in the utilization and multicore-scaling
 * constants. The utilization constants are calibration parameters,
 * chosen so the model reproduces the paper's measured baseline
 * ordering and magnitudes (Sec. VIII-B); they are documented in
 * DESIGN.md as substitutions.
 */

#ifndef ROBOX_PERFMODEL_PLATFORMS_HH
#define ROBOX_PERFMODEL_PLATFORMS_HH

#include <string>
#include <vector>

namespace robox::perfmodel
{

/** Hardware and calibration parameters of one baseline platform. */
struct PlatformSpec
{
    std::string name;
    bool isGpu = false;

    int cores = 1;              //!< CPU cores or CUDA cores.
    double clockGhz = 1.0;
    double flopsPerCyclePerCore = 2.0; //!< SIMD/FMA width per core.

    /**
     * Effective utilization of peak FLOPs on the MPC workload: covers
     * dependency stalls in the Riccati chain, short-vector overheads,
     * and (for GPUs) low occupancy on stage-sized matrices. Calibrated.
     */
    double utilization = 0.1;

    /**
     * Fraction of additional cores usable beyond the first: the
     * stagewise solver parallelizes the tape/assembly phases but not
     * the backward recursion.
     */
    double multicoreScaling = 0.2;

    double dramBandwidthGBs = 12.0; //!< Sustained DRAM bandwidth.
    double cacheMb = 2.0;           //!< Last-level cache capacity.
    double launchOverheadUs = 0.0;  //!< Per solver-iteration overhead.
    /** GPU-only: synchronization cost per Riccati stage step, which is
     *  what makes small-matrix MPC hostile to GPUs. */
    double syncPerStageUs = 0.0;
    /** CPU-only: compute-throughput multiplier applied once the working
     *  set spills the last-level cache. */
    double cacheDegradation = 1.0;
    double busyPowerWatts = 10.0;   //!< Power under the MPC load.

    /** Effective GFLOP/s on the whole workload. */
    double parallelGflops() const;
};

/** The MPC workload profile driving the models. */
struct WorkloadProfile
{
    double flopsPerIteration = 0.0;  //!< Scalar ops per IPM iteration.
    double bytesPerIteration = 0.0;  //!< Working-set traffic (8 B/word).
    double workingSetBytes = 0.0;    //!< Resident set for cache test.
    int horizon = 1;                 //!< Stages (GPU sync count).
    int iterations = 1;              //!< IPM iterations per invocation.
};

/** Predicted seconds per controller invocation. */
double predictSeconds(const PlatformSpec &platform,
                      const WorkloadProfile &workload);

/** Predicted energy per controller invocation (J). */
double predictJoules(const PlatformSpec &platform,
                     const WorkloadProfile &workload);

/** Baseline platform catalog (Table IV). */
const PlatformSpec &armA57();
const PlatformSpec &xeonE3();
const PlatformSpec &tegraX2();
const PlatformSpec &gtx650Ti();
const PlatformSpec &teslaK40();
/** All five baselines in Table IV order. */
const std::vector<PlatformSpec> &allPlatforms();

} // namespace robox::perfmodel

#endif // ROBOX_PERFMODEL_PLATFORMS_HH
