/**
 * @file
 * Implementation of the closed-loop simulation helper.
 */

#include "mpc/simulate.hh"

#include <algorithm>

#include "support/logging.hh"

namespace robox::mpc
{

Plant::Plant(const dsl::ModelSpec &model)
    : nx_(model.nx()), nu_(model.nu()), nref_(model.nref()),
      tape_(model.dynamics, model.numVars())
{
}

void
Plant::derivativeInto(const Vector &x, const Vector &u,
                      const Vector &ref, Vector &dx) const
{
    env_.assign(static_cast<std::size_t>(nx_ + nu_ + nref_), 0.0);
    for (int i = 0; i < nx_; ++i)
        env_[i] = x[i];
    for (int i = 0; i < nu_; ++i)
        env_[nx_ + i] = u[i];
    for (int i = 0; i < nref_; ++i)
        env_[nx_ + nu_ + i] = ref[i];
    tape_.evalInto(env_, work_, out_);
    if (dx.size() != static_cast<std::size_t>(nx_))
        dx.resize(static_cast<std::size_t>(nx_));
    for (int i = 0; i < nx_; ++i)
        dx[i] = out_[i];
}

Vector
Plant::step(const Vector &x, const Vector &u, const Vector &ref,
            double dt, int substeps) const
{
    Vector state = x;
    stepInPlace(state, u, ref, dt, substeps);
    return state;
}

void
Plant::stepInPlace(Vector &state, const Vector &u, const Vector &ref,
                   double dt, int substeps) const
{
    robox_assert(substeps >= 1);
    double h = dt / substeps;
    for (int s = 0; s < substeps; ++s) {
        derivativeInto(state, u, ref, k1_);
        addScaledInto(state, k1_, h / 2, xmid_);
        derivativeInto(xmid_, u, ref, k2_);
        addScaledInto(state, k2_, h / 2, xmid_);
        derivativeInto(xmid_, u, ref, k3_);
        addScaledInto(state, k3_, h, xmid_);
        derivativeInto(xmid_, u, ref, k4_);
        for (int i = 0; i < nx_; ++i)
            state[i] += (k1_[i] + 2.0 * k2_[i] + 2.0 * k3_[i] + k4_[i]) *
                        (h / 6.0);
    }
}

SimulationResult
simulateClosedLoop(IpmSolver &solver, const Vector &x0,
                   const std::function<Vector(int step)> &ref_at,
                   int steps, int substeps)
{
    const dsl::ModelSpec &model = solver.problem().model();
    Plant plant(model);
    BackupPlan backup(model);
    double dt = solver.problem().options().dt;

    SimulationResult result;
    result.states.push_back(x0);
    result.times.push_back(0.0);

    Vector x = x0;
    for (int k = 0; k < steps; ++k) {
        Vector ref = ref_at(k);
        IpmSolver::Result sol = solver.solve(x, ref);
        result.allConverged = result.allConverged && sol.converged;
        result.totalIterations += sol.iterations;
        result.statuses.push_back(sol.status);
        // Graceful degradation: an untrusted solve is replaced by the
        // time-shifted tail of the last accepted plan.
        if (!backup.settle(sol, solver)) {
            ++result.degradedSteps;
            result.maxConsecutiveDegraded =
                std::max(result.maxConsecutiveDegraded,
                         backup.consecutiveDegraded());
        }
        x = plant.step(x, sol.u0, ref, dt, substeps);
        result.inputs.push_back(sol.u0);
        result.states.push_back(x);
        result.times.push_back((k + 1) * dt);
    }
    return result;
}

SimulationResult
simulateClosedLoop(IpmSolver &solver, const Vector &x0, const Vector &ref,
                   int steps, int substeps)
{
    return simulateClosedLoop(
        solver, x0, [&ref](int) { return ref; }, steps, substeps);
}

} // namespace robox::mpc
