/**
 * @file
 * Cycle-level simulator of the RoboX accelerator.
 *
 * Executes a mapped solver-iteration workload against the architecture
 * of Sec. V: per-CU in-order issue with a pipelined 3-stage datapath
 * (single-cycle ALU throughput, LUT nonlinears, one long-latency
 * divider per CC), SIMD vector execution across a cluster, shared-bus
 * and single-hop neighbor transfers inside a cluster, a tree-bus across
 * clusters, and reductions executed either in the compute-enabled
 * interconnect hops or — when the interconnect ALUs are disabled
 * (Fig. 10) — by serializing every element over the shared bus into a
 * single CU. The programmable memory access engine streams stage data
 * at the configured external bandwidth; compute on a stage stalls until
 * its slice has arrived, and the iteration cannot retire before all
 * updates are written back.
 *
 * The static schedule repeats across stages and solver iterations, so
 * cycle counts for a slice of the horizon scale linearly to the full
 * horizon (extrapolate()). The scaling is approximate: it also scales
 * the slice's one-time pipeline fill and drain, which overstates a
 * long horizon slightly (+0.4% to +2.4% at N = 1024 against a full
 * simulation).
 */

#ifndef ROBOX_ACCEL_SIMULATOR_HH
#define ROBOX_ACCEL_SIMULATOR_HH

#include <cstdint>

#include "accel/config.hh"
#include "accel/trace.hh"
#include "compiler/mapper.hh"
#include "mpc/problem.hh"
#include "translator/workload.hh"

namespace robox::accel
{

/** Results of simulating one solver iteration. */
struct CycleStats
{
    std::uint64_t computeCycles = 0; //!< Datapath critical finish time.
    std::uint64_t memoryCycles = 0;  //!< Access-engine streaming time.
    std::uint64_t cycles = 0;        //!< max(compute, memory).

    std::uint64_t busyCyclesPerPhase[mdfg::kNumPhases] = {};
    std::uint64_t busTransfers = 0;      //!< Intra-CC shared-bus uses.
    std::uint64_t neighborTransfers = 0; //!< Single-hop transfers.
    std::uint64_t treeTransfers = 0;     //!< Cross-CC tree-bus uses.
    std::uint64_t aggregations = 0;      //!< GROUP reductions executed.
    std::uint64_t externalBytes = 0;     //!< Off-chip traffic.

    // Per-engine watchdog trips (config.watchdogBudgetCycles > 0): a
    // node or transfer that waited past the budget with no forward
    // progress. Zero on every healthy schedule.
    std::uint64_t computeWatchdogTrips = 0; //!< CU/cluster issue stalls.
    std::uint64_t interconnectWatchdogTrips = 0; //!< Bus/tree waits.
    std::uint64_t memoryWatchdogTrips = 0;  //!< Access-engine stalls.
    /** The config.maxSimCycles hard cap stopped node issue early;
     *  cycle counts cover only the issued prefix. */
    bool cycleLimitHit = false;

    /** Total watchdog trips across the three engines. */
    std::uint64_t
    watchdogTrips() const
    {
        return computeWatchdogTrips + interconnectWatchdogTrips +
               memoryWatchdogTrips;
    }

    /** Wall-clock seconds at the configured clock. */
    double seconds(const AcceleratorConfig &config) const;
    /** Energy in joules under the busy-power model. */
    double energyJoules(const AcceleratorConfig &config) const;
};

/** Simulate one mapped solver iteration; optionally record a trace. */
CycleStats simulate(const translator::Workload &workload,
                    const compiler::ProgramMap &map,
                    const AcceleratorConfig &config,
                    Trace *trace = nullptr);

/**
 * Scale slice statistics linearly to the full horizon (by horizon /
 * slice_stages). Approximate: the slice's one-time fill and drain are
 * scaled along with its per-stage work.
 */
CycleStats extrapolate(const CycleStats &slice, int slice_stages,
                       int horizon);

/**
 * Convenience pipeline: build the workload for a representative slice
 * (min(horizon, max_slice_stages)), run Algorithm 1, simulate, and
 * extrapolate to the full horizon.
 */
CycleStats simulateIteration(const mpc::MpcProblem &problem,
                             const AcceleratorConfig &config,
                             int max_slice_stages = 64);

} // namespace robox::accel

#endif // ROBOX_ACCEL_SIMULATOR_HH
