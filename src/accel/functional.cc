/**
 * @file
 * Implementation of functional mapped-tape execution.
 */

#include "accel/functional.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "compiler/mapper.hh"
#include "mdfg/mdfg.hh"
#include "support/logging.hh"

namespace robox::accel
{

namespace
{

constexpr std::uint32_t kExternal =
    std::numeric_limits<std::uint32_t>::max();

/** Apply one tape instruction in fixed point. */
Fixed
apply(const sym::Tape::Instr &in, Fixed a, Fixed b, const FixedMath &fm)
{
    switch (in.op) {
      case sym::Op::Add: return a + b;
      case sym::Op::Sub: return a - b;
      case sym::Op::Mul: return a * b;
      case sym::Op::Div: return a / b;
      case sym::Op::Min: return a < b ? a : b;
      case sym::Op::Max: return a > b ? a : b;
      case sym::Op::Neg: return -a;
      case sym::Op::Pow: {
        int e = in.ipow < 0 ? -in.ipow : in.ipow;
        Fixed acc = Fixed::fromDouble(1.0);
        for (int i = 0; i < e; ++i)
            acc *= a;
        if (in.ipow < 0)
            acc = Fixed::fromDouble(1.0) / acc;
        return acc;
      }
      case sym::Op::Sin: return fm.sin(a);
      case sym::Op::Cos: return fm.cos(a);
      case sym::Op::Tan: return fm.tan(a);
      case sym::Op::Asin: return fm.asin(a);
      case sym::Op::Acos: return fm.acos(a);
      case sym::Op::Atan: return fm.atan(a);
      case sym::Op::Exp: return fm.exp(a);
      case sym::Op::Sqrt: return fm.sqrt(a);
      default:
        panic("functional: bad op {}", sym::opName(in.op));
    }
}

} // namespace

FunctionalResult
executeTapeMapped(const sym::Tape &tape, const std::vector<Fixed> &inputs,
                  const FixedMath &fm, const AcceleratorConfig &config)
{
    robox_assert(static_cast<int>(inputs.size()) == tape.numVars());

    const std::uint64_t sat0 = Fixed::saturationCount();
    const std::uint64_t div0 = Fixed::divByZeroCount();

    // Lower the tape into an M-DFG so Algorithm 1 can place it. Node i
    // corresponds to tape instruction i because every variable slot is
    // an external input here.
    mdfg::Graph graph;
    std::vector<std::uint32_t> ext(
        static_cast<std::size_t>(tape.numVars()), kExternal);
    std::vector<std::uint32_t> outputs_nodes;
    graph.addTape(tape, ext, mdfg::Phase::Dynamics, 0, outputs_nodes);
    robox_assert(graph.size() == tape.instrs().size());

    compiler::ProgramMap map = compiler::mapGraph(graph, config);

    // Slot values: inputs and constant preloads are resident in every
    // CU (the access engine broadcasts them); instruction results are
    // produced on one CU and move only via the communication map.
    std::vector<Fixed> slot_value(
        static_cast<std::size_t>(tape.numSlots()));
    std::vector<bool> slot_global(
        static_cast<std::size_t>(tape.numSlots()), false);

    FunctionalResult result;
    result.slotPeakAbs.assign(
        static_cast<std::size_t>(tape.numSlots()), 0.0);

    // Record one stored word: peak-magnitude tracking feeds the
    // per-variable range-utilization report.
    auto store = [&](int slot, Fixed v) {
        slot_value[slot] = v;
        double a = std::abs(v.toDouble());
        if (a > result.slotPeakAbs[slot])
            result.slotPeakAbs[slot] = a;
        result.health.trackValue(a);
    };

    for (int i = 0; i < tape.numVars(); ++i) {
        store(i, inputs[i]);
        slot_global[i] = true;
    }
    for (const sym::Tape::Preload &p : tape.preloads()) {
        store(p.slot, Fixed::fromDouble(p.value));
        slot_global[p.slot] = true;
    }

    // Availability of produced values: (node, global CU) pairs granted
    // either by production or by a recorded transfer.
    std::set<std::pair<std::uint32_t, int>> available;
    std::size_t transfer_cursor = 0;
    const int ncu = config.cusPerCc;

    // slot -> producing node (for instruction results).
    std::vector<std::uint32_t> slot_node(
        static_cast<std::size_t>(tape.numSlots()), kExternal);

    for (std::uint32_t id = 0; id < graph.size(); ++id) {
        const sym::Tape::Instr &in = tape.instrs()[id];
        const compiler::Placement &pl = map.placement[id];
        int gcu = pl.cc * ncu + pl.cu;

        // Deliver any transfers scheduled before this consumer runs.
        while (transfer_cursor < map.transfers.size() &&
               map.transfers[transfer_cursor].consumer <= id) {
            const compiler::Transfer &t = map.transfers[transfer_cursor];
            int dst = t.dstCc * ncu + std::max(0, t.dstCu);
            if (!available.count({t.producer,
                                  t.srcCc * ncu +
                                      std::max(0, t.srcCu)}))
                panic("functional: transfer of node {} from a CU that "
                      "does not hold it", t.producer);
            available.insert({t.producer, dst});
            ++result.transfersApplied;
            ++transfer_cursor;
        }

        auto fetch = [&](int slot) -> Fixed {
            if (slot_global[slot])
                return slot_value[slot];
            std::uint32_t producer = slot_node[slot];
            robox_assert(producer != kExternal);
            if (!available.count({producer, gcu}))
                panic("functional: node {} consumes node {} on cu {} "
                      "but the communication map never delivered it",
                      id, producer, gcu);
            ++result.localReads;
            return slot_value[slot];
        };

        Fixed a = fetch(in.a);
        Fixed b = in.b >= 0 ? fetch(in.b) : Fixed();
        store(in.dst, apply(in, a, b, fm));
        slot_node[in.dst] = id;
        available.insert({id, gcu});
    }

    result.outputs.reserve(tape.outputSlots().size());
    for (int slot : tape.outputSlots())
        result.outputs.push_back(slot_value[slot]);

    result.health.tapeEvals = 1;
    result.health.saturations = Fixed::saturationCount() - sat0;
    result.health.divByZeros = Fixed::divByZeroCount() - div0;
    return result;
}

} // namespace robox::accel
