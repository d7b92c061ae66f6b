/**
 * @file
 * Tape: a flattened, deduplicated op list compiled from expression DAGs.
 *
 * The Program Translator lowers every symbolic expression (dynamics,
 * penalties, constraints, and their derivatives) to a Tape. The tape is
 * the scalar-operation payload of the macro dataflow graph: each tape
 * instruction becomes a SCALAR M-DFG node, and the same tape drives both
 * the double-precision reference solver and the fixed-point accelerator
 * datapath, which keeps the two numerically comparable.
 */

#ifndef ROBOX_SYM_TAPE_HH
#define ROBOX_SYM_TAPE_HH

#include <cstdint>
#include <vector>

#include "fixed/fixed.hh"
#include "fixed/fixed_math.hh"
#include "sym/expr.hh"

namespace robox::sym
{

/** Operation counts by category, consumed by the performance models. */
struct OpStats
{
    std::size_t addSub = 0;     //!< Additions and subtractions (incl. neg).
    std::size_t mul = 0;        //!< Multiplications (incl. expanded pow).
    std::size_t div = 0;        //!< Divisions.
    std::size_t nonlinear = 0;  //!< LUT-class operations (sin, exp, ...).

    std::size_t total() const { return addSub + mul + div + nonlinear; }
    OpStats &operator+=(const OpStats &o);
};

/**
 * A straight-line program computing a set of expression outputs from a
 * dense vector of variable values.
 *
 * Slot layout: slots [0, numVars) hold the inputs; following slots hold
 * constants (preloaded) and intermediate results. Identical shared
 * subexpressions occupy a single slot.
 */
class Tape
{
  public:
    /** One three-address instruction; dst is the instruction's slot. */
    struct Instr
    {
        Op op;          //!< Operation (never Const/Var).
        int dst;        //!< Destination slot.
        int a;          //!< First source slot.
        int b;          //!< Second source slot (-1 if unary).
        int ipow;       //!< Exponent for Op::Pow.
    };

    /** A constant preload: slot and value. */
    struct Preload
    {
        int slot;
        double value;
    };

    Tape() = default;

    /**
     * Compile the outputs into a tape.
     *
     * @param outputs Expressions to compute.
     * @param num_vars Size of the input environment; every variable id
     *        referenced by the outputs must be < num_vars.
     */
    Tape(const std::vector<Expr> &outputs, int num_vars);

    int numVars() const { return num_vars_; }
    int numSlots() const { return num_slots_; }
    const std::vector<Instr> &instrs() const { return instrs_; }
    const std::vector<Preload> &preloads() const { return preloads_; }
    /** Slot index of each output, aligned with the constructor input. */
    const std::vector<int> &outputSlots() const { return output_slots_; }
    /**
     * Per output i, the length of the instruction prefix that computes
     * outputs 0..i. Outputs are lowered in order and every instruction
     * follows its operands, so the prefix holds all they need; the
     * values are nondecreasing.
     */
    const std::vector<int> &outputEnds() const { return output_ends_; }

    /**
     * Ascending indices of the outputs computed at run time: those not
     * held in a preload slot. Every other output is a constant fixed
     * at compilation.
     */
    const std::vector<int> &computedOutputs() const
    {
        return computed_outputs_;
    }
    /**
     * Serial number of the compilation that built this tape: copies
     * share it and no other compilation reuses it, so it names the
     * tape's outputs whatever address holds the tape. Compiled tapes
     * number from 1; an empty, default-constructed tape has 0.
     */
    std::uint64_t serial() const { return serial_; }

    /** Evaluate in double precision. */
    std::vector<double> eval(const std::vector<double> &inputs) const;

    /**
     * Evaluate in double precision into caller-owned buffers. work is
     * the slot scratch (resized to numSlots()), out receives one value
     * per output. Once both buffers have grown to their steady-state
     * capacity the call performs no heap allocation, which is what the
     * MPC solver's allocation-free hot path relies on.
     */
    void evalInto(const std::vector<double> &inputs,
                  std::vector<double> &work,
                  std::vector<double> &out) const;

    /**
     * Evaluate on a slot scratch whose inputs, slots [0, numVars()),
     * the caller has already written; work must hold at least
     * numSlots() slots. Writes the preloads and runs the instruction
     * prefix that computes the first num_outputs outputs
     * (outputEnds()); output i is then work[outputSlots()[i]]. The
     * values are bitwise those of the full evaluation: the prefix runs
     * the same operations on the same operands in the same order.
     * Every double-precision evaluation runs through here.
     */
    void evalInPlace(std::vector<double> &work,
                     std::size_t num_outputs) const;

    /**
     * Evaluate in Q14.17 fixed point, using LUT-backed nonlinear
     * functions — bit-compatible with the accelerator datapath.
     */
    std::vector<Fixed> evalFixed(const std::vector<Fixed> &inputs,
                                 const FixedMath &fm) const;

    /** Fixed-point analogue of evalInto. */
    void evalFixedInto(const std::vector<Fixed> &inputs,
                       const FixedMath &fm, std::vector<Fixed> &work,
                       std::vector<Fixed> &out) const;

    /** Operation counts by category. */
    OpStats stats() const;

  private:
    int num_vars_ = 0;
    int num_slots_ = 0;
    std::vector<Instr> instrs_;
    std::vector<Preload> preloads_;
    std::vector<int> output_slots_;
    std::vector<int> output_ends_;
    std::vector<int> computed_outputs_;
    std::uint64_t serial_ = 0;
};

} // namespace robox::sym

#endif // ROBOX_SYM_TAPE_HH
