/**
 * @file
 * Closed-loop simulation of a RoboX controller on the true continuous
 * dynamics.
 *
 * The MPC controller plans against its own discretization; this helper
 * plays the role of the physical robot: it integrates the ModelSpec's
 * continuous dynamics with finely-substepped RK4, applies the first
 * control of each plan (Sec. II-B), and records the realized
 * trajectory. Used by examples and by the convergence tests that check
 * each benchmark robot actually accomplishes its task.
 */

#ifndef ROBOX_MPC_SIMULATE_HH
#define ROBOX_MPC_SIMULATE_HH

#include <functional>
#include <vector>

#include "mpc/failsafe.hh"
#include "mpc/ipm.hh"
#include "mpc/status.hh"

namespace robox::mpc
{

/** Realized closed-loop trajectory. */
struct SimulationResult
{
    std::vector<Vector> states;  //!< x at each control period (steps+1).
    std::vector<Vector> inputs;  //!< Applied u at each period (steps).
    std::vector<double> times;   //!< Time stamps (steps+1).
    bool allConverged = true;    //!< Every solve converged.
    int totalIterations = 0;     //!< Summed IPM iterations.
    /** Per-step solver status (size steps). */
    std::vector<SolveStatus> statuses;
    /** Steps whose command came from the backup plan (the
     *  time-shifted tail of the last accepted plan; failsafe.hh). */
    int degradedSteps = 0;
    /** Longest run of consecutive degraded steps. */
    int maxConsecutiveDegraded = 0;
};

/** The plant: integrates the continuous dynamics. */
class Plant
{
  public:
    /** Build an integrator for the model's continuous dynamics. */
    explicit Plant(const dsl::ModelSpec &model);

    /**
     * Integrate one control period of length dt with RK4 substeps.
     *
     * @param x Current state.
     * @param u Held control input.
     * @param ref Reference values (may enter dynamics).
     * @param dt Control period.
     * @param substeps RK4 substeps within the period.
     */
    Vector step(const Vector &x, const Vector &u, const Vector &ref,
                double dt, int substeps = 8) const;

    /** step() advancing x in place; allocation-free once warm. */
    void stepInPlace(Vector &x, const Vector &u, const Vector &ref,
                     double dt, int substeps = 8) const;

  private:
    void derivativeInto(const Vector &x, const Vector &u,
                        const Vector &ref, Vector &dx) const;

    int nx_;
    int nu_;
    int nref_;
    sym::Tape tape_;
    // Evaluation scratch reused across substeps, so long rollouts do
    // not churn the heap. A Plant instance is therefore not safe to
    // share across threads; give each worker its own.
    mutable std::vector<double> env_;
    mutable std::vector<double> work_;
    mutable std::vector<double> out_;
    mutable Vector k1_, k2_, k3_, k4_, xmid_;
};

/**
 * Run closed-loop MPC for a number of control periods with a possibly
 * time-varying reference.
 */
SimulationResult simulateClosedLoop(
    IpmSolver &solver, const Vector &x0,
    const std::function<Vector(int step)> &ref_at, int steps,
    int substeps = 8);

/** Convenience overload for a constant reference. */
SimulationResult simulateClosedLoop(IpmSolver &solver, const Vector &x0,
                                    const Vector &ref, int steps,
                                    int substeps = 8);

} // namespace robox::mpc

#endif // ROBOX_MPC_SIMULATE_HH
