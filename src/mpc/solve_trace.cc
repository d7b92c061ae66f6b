/**
 * @file
 * Pretty printer for the per-solve iteration trace.
 */

#include "mpc/solve_trace.hh"

#include <cstdio>
#include <sstream>

namespace robox::mpc
{

const char *
toString(RecoveryRung rung)
{
    switch (rung) {
      case RecoveryRung::None: return "-";
      case RecoveryRung::RegBump: return "reg-bump";
      case RecoveryRung::StepBackoff: return "step-backoff";
      case RecoveryRung::ColdRestart: return "cold-restart";
      case RecoveryRung::Exhausted: return "exhausted";
    }
    return "?";
}

std::string
formatSolveTrace(const std::string &name, const SolveTrace &trace)
{
    std::ostringstream os;
    os << "---------- Begin Solve Trace ( " << name << " ) ----------\n";
    if (!trace.enabled()) {
        os << "(tracing disabled: ring capacity 0)\n";
    } else if (trace.empty()) {
        os << "(no iterations recorded)\n";
    } else {
        if (trace.dropped() > 0)
            os << "... " << trace.dropped()
               << " earlier iteration(s) dropped (ring capacity "
               << trace.capacity() << ") ...\n";
        char line[192];
        std::snprintf(line, sizeof(line),
                      "%5s %12s %12s %10s %8s %10s %9s  %-20s %s\n",
                      "iter", "eqResidual", "compAvg", "mu", "alpha",
                      "stepInf", "kktReg", "factor", "recovery");
        os << line;
        for (int i = 0; i < trace.size(); ++i) {
            const IterationRecord &r = trace.record(i);
            std::snprintf(line, sizeof(line),
                          "%5d %12.4e %12.4e %10.2e %8.4f %10.3e %9.1e"
                          "  %-20s %s\n",
                          r.iteration, r.eqResidual, r.compAverage,
                          r.mu, r.stepAlpha, r.stepInf,
                          r.regularization, toString(r.factor),
                          toString(r.rung));
            os << line;
        }
    }
    os << "---------- End Solve Trace ( " << name << " ) ----------\n";
    return os.str();
}

} // namespace robox::mpc
