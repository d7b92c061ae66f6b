/**
 * @file
 * Implementation of the solver-iteration workload builder.
 */

#include "translator/workload.hh"

#include <limits>

#include "support/logging.hh"

namespace robox::translator
{

namespace
{

constexpr std::uint32_t kExternal =
    std::numeric_limits<std::uint32_t>::max();

using mdfg::Graph;
using mdfg::Node;
using mdfg::NodeKind;
using mdfg::Phase;

/** Ids of the nodes producing each element of a matrix/vector. */
using NodeIds = std::vector<std::uint32_t>;

/** Helper collecting graph-construction idioms for one workload. */
class Builder
{
  public:
    Builder(Graph &graph, Phase phase, int stage)
        : graph_(graph), phase_(phase), stage_(stage) {}

    void setPhase(Phase phase, int stage)
    {
        phase_ = phase;
        stage_ = stage;
    }

    /** One scalar op depending on the given producers. */
    std::uint32_t
    scalar(sym::Op op, std::initializer_list<std::uint32_t> deps)
    {
        Node n;
        n.kind = NodeKind::Scalar;
        n.op = op;
        n.phase = phase_;
        n.stage = stage_;
        n.deps.assign(deps.begin(), deps.end());
        return graph_.add(std::move(n));
    }

    /** Elementwise vector op of the given length. */
    std::uint32_t
    vector(sym::Op op, int length, const NodeIds &deps)
    {
        Node n;
        n.kind = NodeKind::Vector;
        n.op = op;
        n.length = length;
        n.phase = phase_;
        n.stage = stage_;
        n.deps = deps;
        return graph_.add(std::move(n));
    }

    /** Reduction (dot-product style) over `length` elements. */
    std::uint32_t
    group(sym::Op op, int length, const NodeIds &deps)
    {
        Node n;
        n.kind = NodeKind::Group;
        n.op = op;
        n.length = length;
        n.phase = phase_;
        n.stage = stage_;
        n.deps = deps;
        return graph_.add(std::move(n));
    }

    /**
     * Dense matrix product C[m x p] = A[m x k] * B[k x p] as m*p GROUP
     * dot products of length k. Row-major node-id vectors; entries may
     * be kExternal for data with no in-graph producer.
     */
    NodeIds
    matmul(int m, int k, int p, const NodeIds &a, const NodeIds &b)
    {
        NodeIds c(static_cast<std::size_t>(m) * p);
        for (int i = 0; i < m; ++i) {
            for (int j = 0; j < p; ++j) {
                NodeIds deps;
                for (int t = 0; t < k; ++t) {
                    push(deps, a[i * k + t]);
                    push(deps, b[t * p + j]);
                }
                c[i * p + j] = group(sym::Op::Add, k, deps);
            }
        }
        return c;
    }

    /** Elementwise combination of two equally-shaped operands. */
    NodeIds
    elementwise(sym::Op op, const NodeIds &a, const NodeIds &b)
    {
        robox_assert(a.size() == b.size());
        NodeIds deps;
        for (std::uint32_t id : a)
            push(deps, id);
        for (std::uint32_t id : b)
            push(deps, id);
        std::uint32_t id = vector(op, static_cast<int>(a.size()), deps);
        return NodeIds(a.size(), id);
    }

    /**
     * Cholesky factorization of an n x n matrix: a sequential chain of
     * column steps (sqrt, scale, rank-1 update), which is the
     * parallelism-limited core of the Factor phase.
     */
    NodeIds
    cholesky(int n, const NodeIds &a)
    {
        NodeIds l = a;
        std::uint32_t prev = kExternal;
        for (int j = 0; j < n; ++j) {
            std::uint32_t piv =
                scalar(sym::Op::Sqrt, {l[j * n + j], prev});
            if (n - j - 1 > 0) {
                NodeIds scale_deps;
                push(scale_deps, piv);
                for (int i = j + 1; i < n; ++i)
                    push(scale_deps, l[i * n + j]);
                std::uint32_t scaled =
                    vector(sym::Op::Div, n - j - 1, scale_deps);
                NodeIds upd_deps{scaled, piv};
                std::uint32_t updated = vector(
                    sym::Op::Sub, (n - j - 1) * (n - j - 1), upd_deps);
                for (int i = j + 1; i < n; ++i) {
                    l[i * n + j] = scaled;
                    for (int t = j + 1; t <= i; ++t)
                        l[i * n + t] = updated;
                }
                prev = updated;
            } else {
                prev = piv;
            }
            l[j * n + j] = piv;
        }
        return l;
    }

    /**
     * Triangular solve L X = B (and L^T) for an n x n factor and p
     * right-hand sides: 2n sequential steps, each a row dot product.
     */
    NodeIds
    triangularSolve(int n, int p, const NodeIds &l, const NodeIds &b)
    {
        NodeIds x(static_cast<std::size_t>(n) * p);
        std::uint32_t prev = kExternal;
        for (int pass = 0; pass < 2; ++pass) {
            for (int i = 0; i < n; ++i) {
                NodeIds deps;
                push(deps, prev);
                push(deps, l[i * n + i]);
                for (int j = 0; j < p; ++j)
                    push(deps, b[i * p + j]);
                std::uint32_t row =
                    group(sym::Op::Add, std::max(1, i), deps);
                for (int j = 0; j < p; ++j)
                    x[i * p + j] = row;
                prev = row;
            }
        }
        return x;
    }

  private:
    static void
    push(NodeIds &deps, std::uint32_t id)
    {
        if (id != kExternal)
            deps.push_back(id);
    }

    Graph &graph_;
    Phase phase_;
    int stage_;
};

} // namespace

Workload
buildSolverIteration(const mpc::MpcProblem &problem, int stages)
{
    const int nx = problem.nx();
    const int nu = problem.nu();
    const int nref = problem.nref();
    const int np_run = problem.numRunningResiduals();
    const int np_term = problem.numTerminalResiduals();
    const int nh_run = problem.numRunningIneq();
    const int nh_term = problem.numTerminalIneq();
    const int horizon = problem.horizon();
    if (stages < 0 || stages > horizon)
        stages = horizon;
    robox_assert(stages >= 1);

    Workload wl;
    wl.stages = stages;
    wl.horizon = horizon;
    wl.nx = nx;
    wl.nu = nu;

    Graph &g = wl.graph;
    Builder b(g, Phase::Dynamics, 0);

    const std::vector<std::uint32_t> ext_inputs(
        static_cast<std::size_t>(nx + nu + nref), kExternal);

    // Per-stage node handles needed by the Factor/Rollout phases.
    std::vector<NodeIds> a_nodes(stages), b_nodes(stages);
    std::vector<NodeIds> q_nodes(stages), r_nodes(stages),
        s_nodes(stages), qv_nodes(stages), rv_nodes(stages);

    std::vector<std::uint32_t> tape_out;
    for (int k = 0; k < stages; ++k) {
        // ----------------------------------------------------------
        // Tape phases.
        // ----------------------------------------------------------
        b.setPhase(Phase::Dynamics, k);
        g.addTape(problem.dynamicsTape(), ext_inputs, Phase::Dynamics, k,
                  tape_out);
        NodeIds f_out(tape_out.begin(), tape_out.begin() + nx);
        a_nodes[k].assign(tape_out.begin() + nx,
                          tape_out.begin() + nx + nx * nx);
        b_nodes[k].assign(tape_out.begin() + nx + nx * nx,
                          tape_out.end());

        NodeIds cost_jx, cost_ju, cost_r;
        if (np_run > 0) {
            g.addTape(problem.runningCostTape(), ext_inputs, Phase::Cost,
                      k, tape_out);
            cost_r.assign(tape_out.begin(), tape_out.begin() + np_run);
            cost_jx.assign(tape_out.begin() + np_run,
                           tape_out.begin() + np_run + np_run * nx);
            cost_ju.assign(tape_out.begin() + np_run + np_run * nx,
                           tape_out.end());
        }

        NodeIds ineq_jx, ineq_ju, ineq_h;
        if (nh_run > 0) {
            g.addTape(problem.runningIneqTape(), ext_inputs,
                      Phase::Constraint, k, tape_out);
            ineq_h.assign(tape_out.begin(), tape_out.begin() + nh_run);
            ineq_jx.assign(tape_out.begin() + nh_run,
                           tape_out.begin() + nh_run + nh_run * nx);
            ineq_ju.assign(tape_out.begin() + nh_run + nh_run * nx,
                           tape_out.end());
        }

        // ----------------------------------------------------------
        // Hessian assembly: Q = 2 Jx' W Jx + Hx' Sigma Hx, etc.
        // ----------------------------------------------------------
        b.setPhase(Phase::Hessian, k);

        // Barrier coefficients sigma = lam/s and rhs vector y: two
        // vector ops over the inequality rows.
        std::uint32_t sigma = kExternal;
        std::uint32_t yvec = kExternal;
        if (nh_run > 0) {
            NodeIds hdeps = ineq_h;
            sigma = b.vector(sym::Op::Div, nh_run, hdeps);
            NodeIds ydeps = ineq_h;
            ydeps.push_back(sigma);
            yvec = b.vector(sym::Op::Add, nh_run, ydeps);
        }

        auto assemble = [&](int rows, int cols, const NodeIds &ja,
                            const NodeIds &jb, const NodeIds &ha,
                            const NodeIds &hb) {
            NodeIds out(static_cast<std::size_t>(rows) * cols);
            for (int i = 0; i < rows; ++i) {
                for (int j = 0; j < cols; ++j) {
                    NodeIds deps;
                    int len = 0;
                    for (int t = 0; t < np_run; ++t) {
                        deps.push_back(ja[t * rows + i]);
                        deps.push_back(jb[t * cols + j]);
                        ++len;
                    }
                    for (int t = 0; t < nh_run; ++t) {
                        deps.push_back(ha[t * rows + i]);
                        deps.push_back(hb[t * cols + j]);
                        ++len;
                    }
                    if (sigma != kExternal)
                        deps.push_back(sigma);
                    out[i * cols + j] =
                        b.group(sym::Op::Add, std::max(1, len), deps);
                }
            }
            return out;
        };

        q_nodes[k] = assemble(nx, nx, cost_jx, cost_jx, ineq_jx, ineq_jx);
        r_nodes[k] = assemble(nu, nu, cost_ju, cost_ju, ineq_ju, ineq_ju);
        s_nodes[k] = assemble(nu, nx, cost_ju, cost_jx, ineq_ju, ineq_jx);

        auto assemble_grad = [&](int rows, const NodeIds &j,
                                 const NodeIds &h) {
            NodeIds out(static_cast<std::size_t>(rows));
            for (int i = 0; i < rows; ++i) {
                NodeIds deps;
                int len = 0;
                for (int t = 0; t < np_run; ++t) {
                    deps.push_back(j[t * rows + i]);
                    deps.push_back(cost_r[t]);
                    ++len;
                }
                for (int t = 0; t < nh_run; ++t) {
                    deps.push_back(h[t * rows + i]);
                    ++len;
                }
                if (yvec != kExternal)
                    deps.push_back(yvec);
                out[i] = b.group(sym::Op::Add, std::max(1, len), deps);
            }
            return out;
        };
        qv_nodes[k] = assemble_grad(nx, cost_jx, ineq_jx);
        rv_nodes[k] = assemble_grad(nu, cost_ju, ineq_ju);
    }

    // --------------------------------------------------------------
    // Terminal stage: cost/ineq tapes and Qn assembly.
    // --------------------------------------------------------------
    b.setPhase(Phase::Cost, stages);
    NodeIds term_jx, term_r;
    if (np_term > 0) {
        g.addTape(problem.terminalCostTape(), ext_inputs, Phase::Cost,
                  stages, tape_out);
        term_r.assign(tape_out.begin(), tape_out.begin() + np_term);
        term_jx.assign(tape_out.begin() + np_term, tape_out.end());
    }
    NodeIds term_hx, term_h;
    if (nh_term > 0) {
        g.addTape(problem.terminalIneqTape(), ext_inputs,
                  Phase::Constraint, stages, tape_out);
        term_h.assign(tape_out.begin(), tape_out.begin() + nh_term);
        term_hx.assign(tape_out.begin() + nh_term, tape_out.end());
    }

    b.setPhase(Phase::Hessian, stages);
    NodeIds p_mat(static_cast<std::size_t>(nx) * nx);
    NodeIds p_vec(static_cast<std::size_t>(nx));
    for (int i = 0; i < nx; ++i) {
        for (int j = 0; j < nx; ++j) {
            NodeIds deps;
            int len = 0;
            for (int t = 0; t < np_term; ++t) {
                deps.push_back(term_jx[t * nx + i]);
                deps.push_back(term_jx[t * nx + j]);
                ++len;
            }
            for (int t = 0; t < nh_term; ++t) {
                deps.push_back(term_hx[t * nx + i]);
                deps.push_back(term_hx[t * nx + j]);
                ++len;
            }
            p_mat[i * nx + j] = b.group(sym::Op::Add, std::max(1, len),
                                        deps);
        }
        NodeIds gdeps;
        int glen = 0;
        for (int t = 0; t < np_term; ++t) {
            gdeps.push_back(term_jx[t * nx + i]);
            gdeps.push_back(term_r[t]);
            ++glen;
        }
        for (int t = 0; t < nh_term; ++t) {
            gdeps.push_back(term_hx[t * nx + i]);
            ++glen;
        }
        p_vec[i] = b.group(sym::Op::Add, std::max(1, glen), gdeps);
    }

    // --------------------------------------------------------------
    // Factor phase: backward Riccati recursion (sequential in k).
    // --------------------------------------------------------------
    std::vector<NodeIds> gain_k(stages), gain_d(stages);
    for (int k = stages - 1; k >= 0; --k) {
        b.setPhase(Phase::Factor, k);
        NodeIds pa = b.matmul(nx, nx, nx, p_mat, a_nodes[k]);
        NodeIds pb = b.matmul(nx, nx, nu, p_mat, b_nodes[k]);
        NodeIds pc = b.matmul(nx, nx, 1, p_mat, p_vec);

        // F blocks: transposed products plus the stage Hessian blocks.
        NodeIds f_xx = b.matmul(nx, nx, nx, a_nodes[k], pa);
        f_xx = b.elementwise(sym::Op::Add, f_xx, q_nodes[k]);
        NodeIds f_ux = b.matmul(nu, nx, nx, b_nodes[k], pa);
        f_ux = b.elementwise(sym::Op::Add, f_ux, s_nodes[k]);
        NodeIds f_uu = b.matmul(nu, nx, nu, b_nodes[k], pb);
        f_uu = b.elementwise(sym::Op::Add, f_uu, r_nodes[k]);
        NodeIds f_u = b.matmul(nu, nx, 1, b_nodes[k], pc);
        f_u = b.elementwise(sym::Op::Add, f_u, rv_nodes[k]);
        NodeIds f_x = b.matmul(nx, nx, 1, a_nodes[k], pc);
        f_x = b.elementwise(sym::Op::Add, f_x, qv_nodes[k]);

        NodeIds l = b.cholesky(nu, f_uu);
        gain_k[k] = b.triangularSolve(nu, nx, l, f_ux);
        gain_d[k] = b.triangularSolve(nu, 1, l, f_u);

        NodeIds fk = b.matmul(nx, nu, nx, f_ux, gain_k[k]);
        p_mat = b.elementwise(sym::Op::Sub, f_xx, fk);
        NodeIds fd = b.matmul(nx, nu, 1, f_ux, gain_d[k]);
        p_vec = b.elementwise(sym::Op::Sub, f_x, fd);
    }

    // --------------------------------------------------------------
    // Rollout phase: forward pass and slack/dual updates.
    // --------------------------------------------------------------
    NodeIds dx(static_cast<std::size_t>(nx), kExternal);
    for (int k = 0; k < stages; ++k) {
        b.setPhase(Phase::Rollout, k);
        NodeIds du = b.matmul(nu, nx, 1, gain_k[k], dx);
        du = b.elementwise(sym::Op::Sub, du, gain_d[k]);
        NodeIds adx = b.matmul(nx, nx, 1, a_nodes[k], dx);
        NodeIds bdu = b.matmul(nx, nu, 1, b_nodes[k], du);
        dx = b.elementwise(sym::Op::Add, adx, bdu);
        if (nh_run > 0) {
            // ds, dlam, and the fraction-to-boundary reduction.
            NodeIds deps = dx;
            std::uint32_t ds = b.vector(sym::Op::Sub, nh_run, deps);
            std::uint32_t dlam = b.vector(sym::Op::Add, nh_run, deps);
            b.group(sym::Op::Min, nh_run, {ds, dlam});
        }
    }

    // --------------------------------------------------------------
    // Memory traffic: the access engine streams the trajectory,
    // slacks/duals, and writes updates back, 4 bytes per word.
    // --------------------------------------------------------------
    std::uint64_t words_per_stage =
        static_cast<std::uint64_t>(nx + nu) + 2 * nh_run;
    wl.bytesInPerStage = 4 * words_per_stage;
    wl.bytesOutPerStage = 4 * words_per_stage;
    wl.bytesFixed =
        4 * (static_cast<std::uint64_t>(nref) + nx + 2 * nh_term);

    // Stage intermediates that outlive their producing pass and are
    // consumed again by the factorization and rollout phases: dynamics
    // Jacobians A/B, Hessian blocks Q/R/S with gradients, feedback
    // gains, and the slack/dual vectors. (Penalty and constraint
    // Jacobians are consumed immediately by the same stage's Hessian
    // assembly and never spill.)
    std::uint64_t ws_words =
        static_cast<std::uint64_t>(nx) * nx + nx * nu +           // A, B
        static_cast<std::uint64_t>(nx) * nx + nu * nu + nu * nx + // QRS
        nx + nu +                                                 // grads
        static_cast<std::uint64_t>(nu) * nx + nu +                // gains
        3 * static_cast<std::uint64_t>(nh_run) + nx + nu;
    wl.bytesWorkingSetPerStage = 4 * ws_words;

    return wl;
}

} // namespace robox::translator
