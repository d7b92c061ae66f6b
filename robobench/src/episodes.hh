/**
 * @file
 * Closed-loop episode generator and task checks shared by the control
 * and fleet workloads, plus the per-period bookkeeping both do on the
 * controller's outputs (command bounds, task penalty, solve totals).
 *
 * Inputs are a pure function of (seed, robot, episode): the program
 * under test only ever sees the generated states and references.
 */

#ifndef ROBOBENCH_EPISODES_HH
#define ROBOBENCH_EPISODES_HH

#include <cstdint>
#include <string>

#include "common.hh"
#include "dsl/model_spec.hh"
#include "linalg/matrix.hh"
#include "mpc/ipm.hh"
#include "mpc/problem.hh"
#include "robots/robots.hh"

namespace robobench
{

/** Relative half-width of the waypoint perturbation. */
constexpr double kWaypointRelative = 0.2;
/** Absolute half-width of a waypoint offset and of an unboxed state's
 *  start perturbation. */
constexpr double kAbsolutePerturbation = 0.05;
/** Half-width of a boxed state's start perturbation, as a share of
 *  its bound span. */
constexpr double kStateRelative = 0.05;

/** One episode's generated inputs. */
struct Episode
{
    robox::Vector x0;       //!< Start state, inside the state bounds.
    robox::Vector waypoint; //!< Reference values (see referenceAt).
    double speed = 0.0;     //!< AutoVehicle: reference speed along x.
};

/** Control periods per episode: the closed-loop test lengths in
 *  tests/robots_test.cc. */
int episodeLength(const std::string &robot);

/**
 * A seeded perturbation of the robot's nominal start (a boxed state
 * +-kStateRelative of its bound span, any other +-kAbsolutePerturbation,
 * MicroSat's quaternion renormalized, then clamped inside the state
 * bounds) and a waypoint near its nominal reference (each value scaled
 * by 1 +- kWaypointRelative, then +-kAbsolutePerturbation).
 */
Episode makeEpisode(const robox::robots::Benchmark &bench,
                    const robox::dsl::ModelSpec &model, std::uint64_t seed,
                    std::uint64_t robot, std::uint64_t episode);

/** Reference at a period of the episode. AutoVehicle races a point
 *  that starts waypoint[0] ahead and moves along x at Episode::speed;
 *  every other robot holds its waypoint. */
robox::Vector referenceAt(const robox::robots::Benchmark &bench,
                          const Episode &episode, int step, double dt);

/**
 * The robot's task criterion from tests/robots_test.cc, evaluated on
 * the episode's final state against its waypoint. max_tilt is the
 * largest |roll| or |pitch| seen during the episode (Quadrotor).
 */
bool taskMet(const robox::robots::Benchmark &bench, const Episode &episode,
             const robox::Vector &final_state, double max_tilt);

/** Largest |roll|, |pitch| of a state (0 for robots without them). */
double tiltOf(const robox::robots::Benchmark &bench,
              const robox::Vector &x);

/** True when u is finite and inside the model's input bounds. */
bool commandInBounds(const robox::dsl::ModelSpec &model,
                     const robox::Vector &u);

/** Task penalty sum_i w_i r_i^2 of the robot's own running penalties
 *  at (x, u, ref). */
double taskPenalty(const robox::mpc::MpcProblem &problem,
                   const robox::Vector &x, const robox::Vector &u,
                   const robox::Vector &ref,
                   robox::mpc::StageEval &scratch);

/** SolveStats summed over solves. */
struct SolveTotals
{
    std::uint64_t solves = 0;
    std::uint64_t iterations = 0;
    std::uint64_t unconverged = 0;
    std::uint64_t lineSearchEvals = 0;
    std::uint64_t kktFlops = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t allocations = 0;
    double solveSeconds = 0.0;

    void add(const robox::mpc::SolveStats &stats);
    SolveTotals &operator+=(const SolveTotals &o);
    double usPerIteration() const;
    double iterationsPerSolve() const;
    double unconvergedRatio() const;
};

/** Fill the mpc.* solver layer metrics from totals; suffix is "" for
 *  the aggregate or ".<Robot>". */
void reportSolverLayer(Result &r, const std::string &suffix,
                       const SolveTotals &t);

/** Fill the counters only aggregates carry (line search, KKT flops,
 *  recoveries, allocations). */
void reportSolverCounters(Result &r, const SolveTotals &t);

/** Per-period tail and median of a latency sample, with the tail's
 *  percentile recorded in facts under the given key. */
void recordLatency(Result &r, const std::string &key,
                   const std::vector<double> &p50s,
                   const std::vector<double> &tails, double pct,
                   std::size_t n);

} // namespace robobench

#endif // ROBOBENCH_EPISODES_HH
