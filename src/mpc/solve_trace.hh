/**
 * @file
 * Per-solve iteration trace for the interior-point solver.
 *
 * A fixed-capacity ring of per-iteration records kept by IpmSolver and
 * surfaced through SolveStats::trace. When a solve converges in a few
 * iterations the ring holds the whole story; when a solve misbehaves
 * (regularization bumps, step backoffs, cold restarts, divergence) the
 * ring holds the last 64 iterations (ipm.cc's kSolveTraceCapacity)
 * leading up to the outcome — exactly the window a postmortem needs.
 * The ring is pre-sized once at solver construction and written in
 * place, so recording never allocates and the zero-allocation
 * warm-solve contract (tests/batch_test.cc) is preserved.
 *
 * formatSolveTrace renders the ring as an aligned text table in the
 * same spirit as accel::formatNumericHealth, for log files and test
 * failure messages.
 */

#ifndef ROBOX_MPC_SOLVE_TRACE_HH
#define ROBOX_MPC_SOLVE_TRACE_HH

#include <string>

#include "linalg/cholesky.hh"
#include "support/ring.hh"

namespace robox::mpc
{

/** Which recovery-ladder rung (if any) fired on an iteration. */
enum class RecoveryRung
{
    None = 0,       //!< Normal iteration, no recovery.
    RegBump,        //!< KKT regularization bump.
    StepBackoff,    //!< Step-length cap backoff.
    ColdRestart,    //!< Warm-start reset + reinitialization.
    Exhausted,      //!< Ladder exhausted; solve gave up after this.
};

const char *toString(RecoveryRung rung);

/** One interior-point iteration of one solve() call. */
struct IterationRecord
{
    int iteration = 0;          //!< 1-based iteration number.
    double eqResidual = 0.0;    //!< Inf-norm of the dynamics residual.
    double compAverage = 0.0;   //!< Average complementarity s'lam/m.
    double mu = 0.0;            //!< Barrier parameter in effect.
    double stepAlpha = 0.0;     //!< Accepted step length (after search).
    double stepInf = 0.0;       //!< Inf-norm of the Newton step.
    double regularization = 0.0; //!< KKT Levenberg shift in effect.
    FactorStatus factor = FactorStatus::Ok;
    RecoveryRung rung = RecoveryRung::None;
    // Cumulative ladder counters as of this iteration's end.
    int regularizationBumps = 0;
    int stepBackoffs = 0;
    int coldRestarts = 0;
};

/** Fixed-capacity ring of IterationRecords (support/ring.hh). */
using SolveTrace = support::Ring<IterationRecord>;

/**
 * Render the trace as an aligned text table (one row per retained
 * iteration), bracketed by Begin/End banners. Notes how many older
 * records were dropped to ring wrap-around, so a truncated view is
 * never mistaken for the whole solve.
 */
std::string formatSolveTrace(const std::string &name,
                             const SolveTrace &trace);

} // namespace robox::mpc

#endif // ROBOX_MPC_SOLVE_TRACE_HH
