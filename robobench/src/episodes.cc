/**
 * @file
 * Episode generator, task checks and solver bookkeeping.
 */

#include "episodes.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace robobench
{

using robox::Vector;
using robox::robots::Benchmark;

int
episodeLength(const std::string &robot)
{
    if (robot == "MobileRobot")
        return 60;
    if (robot == "Manipulator")
        return 120;
    if (robot == "AutoVehicle")
        return 50;
    if (robot == "MicroSat")
        return 80;
    if (robot == "Quadrotor")
        return 120;
    return 150; // Hexacopter
}

Episode
makeEpisode(const Benchmark &bench, const robox::dsl::ModelSpec &model,
            std::uint64_t seed, std::uint64_t robot, std::uint64_t episode)
{
    Rng rng(streamSeed(seed, robot + 1, episode));
    Episode e;
    e.x0 = bench.initialState;
    for (int i = 0; i < model.nx(); ++i) {
        const double lo = model.stateLower[i];
        const double hi = model.stateUpper[i];
        const bool boxed = lo != -robox::dsl::kUnbounded &&
                           hi != robox::dsl::kUnbounded;
        e.x0[i] += rng.symmetric(boxed ? kStateRelative * (hi - lo)
                                       : kAbsolutePerturbation);
    }
    if (bench.name == "MicroSat") {
        double norm = std::sqrt(e.x0[0] * e.x0[0] + e.x0[1] * e.x0[1] +
                                e.x0[2] * e.x0[2] + e.x0[3] * e.x0[3]);
        for (int i = 0; i < 4; ++i)
            e.x0[i] /= norm;
    }
    for (int i = 0; i < model.nx(); ++i) {
        // Stay strictly inside finite bounds.
        const double lo = model.stateLower[i];
        const double hi = model.stateUpper[i];
        const double margin = 1e-3;
        if (lo != -robox::dsl::kUnbounded)
            e.x0[i] = std::max(e.x0[i], lo + margin);
        if (hi != robox::dsl::kUnbounded)
            e.x0[i] = std::min(e.x0[i], hi - margin);
    }
    e.waypoint = bench.reference;
    for (std::size_t i = 0; i < e.waypoint.size(); ++i) {
        e.waypoint[i] *= 1.0 + rng.symmetric(kWaypointRelative);
        e.waypoint[i] += rng.symmetric(kAbsolutePerturbation);
    }
    // The racing reference moves at the task's 3 m/s target speed.
    e.speed = 3.0 * (1.0 + rng.symmetric(kWaypointRelative));
    return e;
}

Vector
referenceAt(const Benchmark &bench, const Episode &episode, int step,
            double dt)
{
    if (bench.name != "AutoVehicle")
        return episode.waypoint;
    return Vector{episode.x0[0] + episode.waypoint[0] +
                      episode.speed * dt * step,
                  episode.waypoint[1], episode.waypoint[2]};
}

double
tiltOf(const Benchmark &bench, const Vector &x)
{
    if (bench.name != "Quadrotor" && bench.name != "Hexacopter")
        return 0.0;
    return std::max(std::abs(x[6]), std::abs(x[7]));
}

bool
taskMet(const Benchmark &bench, const Episode &episode, const Vector &x,
        double max_tilt)
{
    const Vector &w = episode.waypoint;
    auto near = [](double a, double b, double tol) {
        return std::abs(a - b) <= tol;
    };
    if (bench.name == "MobileRobot")
        return near(x[0], w[0], 0.15) && near(x[1], w[1], 0.15);
    if (bench.name == "Manipulator") {
        double ee_x = std::cos(x[0]) + std::cos(x[0] + x[1]);
        double ee_y = std::sin(x[0]) + std::sin(x[0] + x[1]);
        return near(ee_x, w[0], 0.15) && near(ee_y, w[1], 0.15);
    }
    if (bench.name == "AutoVehicle")
        return x[3] > 2.0 && std::abs(x[1] - w[1]) < 0.5;
    if (bench.name == "MicroSat") {
        double att = std::abs(x[1] - w[0]) + std::abs(x[2] - w[1]) +
                     std::abs(x[3] - w[2]);
        double norm = x[0] * x[0] + x[1] * x[1] + x[2] * x[2] +
                      x[3] * x[3];
        return std::abs(x[7] - w[3]) < 0.1 && att < 0.05 &&
               near(norm, 1.0, 0.06);
    }
    if (bench.name == "Quadrotor")
        return near(x[0], w[0], 0.2) && near(x[1], w[1], 0.2) &&
               near(x[2], w[2], 0.2) && max_tilt <= 0.6 + 5e-2;
    // Hexacopter: roll, pitch, yaw.
    return near(x[6], w[0], 0.08) && near(x[7], w[1], 0.08) &&
           near(x[8], w[2], 0.08);
}

bool
commandInBounds(const robox::dsl::ModelSpec &model, const Vector &u)
{
    if (static_cast<int>(u.size()) != model.nu())
        return false;
    for (int i = 0; i < model.nu(); ++i) {
        if (!std::isfinite(u[i]))
            return false;
        const double lo = model.inputLower[i];
        const double hi = model.inputUpper[i];
        if (lo != -robox::dsl::kUnbounded &&
            u[i] < lo - 1e-6 * std::max(1.0, std::abs(lo)))
            return false;
        if (hi != robox::dsl::kUnbounded &&
            u[i] > hi + 1e-6 * std::max(1.0, std::abs(hi)))
            return false;
    }
    return true;
}

double
taskPenalty(const robox::mpc::MpcProblem &problem, const Vector &x,
            const Vector &u, const Vector &ref,
            robox::mpc::StageEval &scratch)
{
    problem.evalRunningCost(x, u, ref, scratch);
    const std::vector<double> &w = problem.runningWeights();
    double sum = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i)
        sum += w[i] * scratch.value[i] * scratch.value[i];
    return sum;
}

void
SolveTotals::add(const robox::mpc::SolveStats &s)
{
    ++solves;
    iterations += static_cast<std::uint64_t>(s.iterations);
    unconverged += s.status == robox::mpc::SolveStatus::MaxIterations;
    lineSearchEvals += static_cast<std::uint64_t>(s.lineSearchEvals);
    kktFlops += s.riccatiFlops;
    recoveries += static_cast<std::uint64_t>(s.recoveryAttempts);
    allocations += s.heapAllocations;
    solveSeconds += s.solveSeconds;
}

SolveTotals &
SolveTotals::operator+=(const SolveTotals &o)
{
    solves += o.solves;
    iterations += o.iterations;
    unconverged += o.unconverged;
    lineSearchEvals += o.lineSearchEvals;
    kktFlops += o.kktFlops;
    recoveries += o.recoveries;
    allocations += o.allocations;
    solveSeconds += o.solveSeconds;
    return *this;
}

double
SolveTotals::usPerIteration() const
{
    return iterations ? 1e6 * solveSeconds / iterations : 0.0;
}

double
SolveTotals::iterationsPerSolve() const
{
    return solves ? static_cast<double>(iterations) / solves : 0.0;
}

double
SolveTotals::unconvergedRatio() const
{
    return solves ? static_cast<double>(unconverged) / solves : 0.0;
}

void
reportSolverLayer(Result &r, const std::string &suffix,
                  const SolveTotals &t)
{
    r.layer("mpc.solve_us_per_iter" + suffix, t.usPerIteration());
    r.layer("mpc.iters_per_solve" + suffix, t.iterationsPerSolve());
    r.layer("mpc.unconverged_ratio" + suffix, t.unconvergedRatio());
}

void
reportSolverCounters(Result &r, const SolveTotals &t)
{
    const double iters = std::max<double>(1.0, t.iterations);
    const double solves = std::max<double>(1.0, t.solves);
    r.layer("mpc.linesearch_evals_per_iter", t.lineSearchEvals / iters);
    r.layer("mpc.kkt_kflops_per_iter", t.kktFlops / iters / 1e3);
    r.layer("mpc.recoveries_per_solve", t.recoveries / solves);
    r.layer("mpc.heap_allocs_per_solve", t.allocations / solves);
}

void
recordLatency(Result &r, const std::string &key,
              const std::vector<double> &p50s,
              const std::vector<double> &tails, double pct, std::size_t n)
{
    r.e2e("period_p50_ms", geomean(p50s), "ms");
    r.e2e("period_tail_ms", geomean(tails), "ms");
    char buf[64];
    std::snprintf(buf, sizeof buf, "p%g over n=%zu", pct, n);
    r.facts[key] = buf;
}

} // namespace robobench
