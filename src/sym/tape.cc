/**
 * @file
 * Implementation of tape compilation and execution.
 */

#include "sym/tape.hh"

#include <atomic>
#include <cmath>
#include <unordered_map>

#include "support/logging.hh"

namespace robox::sym
{

OpStats &
OpStats::operator+=(const OpStats &o)
{
    addSub += o.addSub;
    mul += o.mul;
    div += o.div;
    nonlinear += o.nonlinear;
    return *this;
}

namespace
{

/** Last serial number handed to a compiled tape. */
std::atomic<std::uint64_t> last_serial{0};

/** Recursive, memoized lowering of one DAG node into tape slots. */
int
lowerNode(const Expr &e, int num_vars,
          std::unordered_map<const ExprNode *, int> &slot_of,
          std::unordered_map<double, int> &const_slot,
          std::vector<Tape::Instr> &instrs,
          std::vector<Tape::Preload> &preloads, int &next_slot)
{
    auto it = slot_of.find(e.id());
    if (it != slot_of.end())
        return it->second;

    int slot = -1;
    switch (e.op()) {
      case Op::Const: {
        auto cit = const_slot.find(e.value());
        if (cit != const_slot.end()) {
            slot = cit->second;
        } else {
            slot = next_slot++;
            preloads.push_back({slot, e.value()});
            const_slot.emplace(e.value(), slot);
        }
        break;
      }
      case Op::Var:
        if (e.varId() >= num_vars)
            panic("tape: variable id {} ('{}') >= declared count {}",
                  e.varId(), e.varName(), num_vars);
        slot = e.varId();
        break;
      case Op::Pow: {
        int a = lowerNode(e.left(), num_vars, slot_of, const_slot, instrs,
                          preloads, next_slot);
        slot = next_slot++;
        instrs.push_back({Op::Pow, slot, a, -1, e.ipow()});
        break;
      }
      default: {
        int a = lowerNode(e.left(), num_vars, slot_of, const_slot, instrs,
                          preloads, next_slot);
        int b = -1;
        if (isBinary(e.op()))
            b = lowerNode(e.right(), num_vars, slot_of, const_slot, instrs,
                          preloads, next_slot);
        slot = next_slot++;
        instrs.push_back({e.op(), slot, a, b, 0});
        break;
      }
    }
    slot_of.emplace(e.id(), slot);
    return slot;
}

} // namespace

Tape::Tape(const std::vector<Expr> &outputs, int num_vars)
    : num_vars_(num_vars)
{
    std::unordered_map<const ExprNode *, int> slot_of;
    std::unordered_map<double, int> const_slot;
    int next_slot = num_vars;
    output_slots_.reserve(outputs.size());
    output_ends_.reserve(outputs.size());
    for (const Expr &e : outputs) {
        output_slots_.push_back(lowerNode(e, num_vars, slot_of, const_slot,
                                          instrs_, preloads_, next_slot));
        output_ends_.push_back(static_cast<int>(instrs_.size()));
    }
    num_slots_ = next_slot;

    std::vector<bool> preloaded(static_cast<std::size_t>(num_slots_));
    for (const Preload &p : preloads_)
        preloaded[p.slot] = true;
    for (std::size_t i = 0; i < output_slots_.size(); ++i)
        if (!preloaded[output_slots_[i]])
            computed_outputs_.push_back(static_cast<int>(i));
    serial_ = last_serial.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::vector<double>
Tape::eval(const std::vector<double> &inputs) const
{
    std::vector<double> work;
    std::vector<double> out;
    evalInto(inputs, work, out);
    return out;
}

void
Tape::evalInto(const std::vector<double> &inputs,
               std::vector<double> &work, std::vector<double> &out) const
{
    robox_assert(static_cast<int>(inputs.size()) == num_vars_);
    // No fill: inputs, preloads and instruction results write every
    // slot before any instruction or output reads it.
    work.resize(num_slots_);
    for (int i = 0; i < num_vars_; ++i)
        work[i] = inputs[i];
    evalInPlace(work, output_slots_.size());
    out.resize(output_slots_.size());
    for (std::size_t i = 0; i < output_slots_.size(); ++i)
        out[i] = work[output_slots_[i]];
}

void
Tape::evalInPlace(std::vector<double> &work, std::size_t num_outputs) const
{
    robox_assert(work.size() >= static_cast<std::size_t>(num_slots_));
    robox_assert(num_outputs <= output_slots_.size());
    for (const Preload &p : preloads_)
        work[p.slot] = p.value;
    const Instr *end =
        instrs_.data() + (num_outputs ? output_ends_[num_outputs - 1] : 0);
    for (const Instr *it = instrs_.data(); it != end; ++it) {
        const Instr &in = *it;
        double a = work[in.a];
        switch (in.op) {
          case Op::Add: work[in.dst] = a + work[in.b]; break;
          case Op::Sub: work[in.dst] = a - work[in.b]; break;
          case Op::Mul: work[in.dst] = a * work[in.b]; break;
          case Op::Div: work[in.dst] = a / work[in.b]; break;
          case Op::Min: work[in.dst] = std::fmin(a, work[in.b]); break;
          case Op::Max: work[in.dst] = std::fmax(a, work[in.b]); break;
          case Op::Neg: work[in.dst] = -a; break;
          case Op::Pow: work[in.dst] = std::pow(a, in.ipow); break;
          case Op::Sin: work[in.dst] = std::sin(a); break;
          case Op::Cos: work[in.dst] = std::cos(a); break;
          case Op::Tan: work[in.dst] = std::tan(a); break;
          case Op::Asin: work[in.dst] = std::asin(a); break;
          case Op::Acos: work[in.dst] = std::acos(a); break;
          case Op::Atan: work[in.dst] = std::atan(a); break;
          case Op::Exp: work[in.dst] = std::exp(a); break;
          case Op::Sqrt: work[in.dst] = std::sqrt(a); break;
          default: panic("tape eval: bad op {}", opName(in.op));
        }
    }
}

std::vector<Fixed>
Tape::evalFixed(const std::vector<Fixed> &inputs, const FixedMath &fm) const
{
    std::vector<Fixed> work;
    std::vector<Fixed> out;
    evalFixedInto(inputs, fm, work, out);
    return out;
}

void
Tape::evalFixedInto(const std::vector<Fixed> &inputs, const FixedMath &fm,
                    std::vector<Fixed> &work,
                    std::vector<Fixed> &out) const
{
    robox_assert(static_cast<int>(inputs.size()) == num_vars_);
    work.assign(num_slots_, Fixed());
    for (int i = 0; i < num_vars_; ++i)
        work[i] = inputs[i];
    for (const Preload &p : preloads_)
        work[p.slot] = Fixed::fromDouble(p.value);
    for (const Instr &in : instrs_) {
        Fixed a = work[in.a];
        switch (in.op) {
          case Op::Add: work[in.dst] = a + work[in.b]; break;
          case Op::Sub: work[in.dst] = a - work[in.b]; break;
          case Op::Mul: work[in.dst] = a * work[in.b]; break;
          case Op::Div: work[in.dst] = a / work[in.b]; break;
          case Op::Min:
            work[in.dst] = a < work[in.b] ? a : work[in.b];
            break;
          case Op::Max:
            work[in.dst] = a > work[in.b] ? a : work[in.b];
            break;
          case Op::Neg: work[in.dst] = -a; break;
          case Op::Pow: {
            // Hardware expands small integer powers into multiplies.
            int e = in.ipow < 0 ? -in.ipow : in.ipow;
            Fixed acc = Fixed::fromDouble(1.0);
            for (int i = 0; i < e; ++i)
                acc *= a;
            if (in.ipow < 0)
                acc = Fixed::fromDouble(1.0) / acc;
            work[in.dst] = acc;
            break;
          }
          case Op::Sin: work[in.dst] = fm.sin(a); break;
          case Op::Cos: work[in.dst] = fm.cos(a); break;
          case Op::Tan: work[in.dst] = fm.tan(a); break;
          case Op::Asin: work[in.dst] = fm.asin(a); break;
          case Op::Acos: work[in.dst] = fm.acos(a); break;
          case Op::Atan: work[in.dst] = fm.atan(a); break;
          case Op::Exp: work[in.dst] = fm.exp(a); break;
          case Op::Sqrt: work[in.dst] = fm.sqrt(a); break;
          default: panic("tape evalFixed: bad op {}", opName(in.op));
        }
    }
    out.resize(output_slots_.size());
    for (std::size_t i = 0; i < output_slots_.size(); ++i)
        out[i] = work[output_slots_[i]];
}

OpStats
Tape::stats() const
{
    OpStats s;
    for (const Instr &in : instrs_) {
        switch (in.op) {
          case Op::Add:
          case Op::Sub:
          case Op::Neg:
          case Op::Min:
          case Op::Max:
            ++s.addSub;
            break;
          case Op::Mul:
            ++s.mul;
            break;
          case Op::Pow:
            s.mul += static_cast<std::size_t>(
                in.ipow < 0 ? -in.ipow : in.ipow);
            if (in.ipow < 0)
                ++s.div;
            break;
          case Op::Div:
            ++s.div;
            break;
          default:
            ++s.nonlinear;
            break;
        }
    }
    return s;
}

} // namespace robox::sym
