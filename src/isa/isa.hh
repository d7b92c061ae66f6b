/**
 * @file
 * The RoboX instruction set architecture (Table II).
 *
 * The ISA splits a program into three separately-queued instruction
 * categories — compute, communication, and memory — each encoded in 32
 * bits. Compute instructions drive the CUs (scalar or SIMD, queue or
 * immediate operands); communication instructions orchestrate the
 * intra-/inter-cluster buses, including the CU/CC aggregation
 * instructions executed by the compute-enabled interconnect; memory
 * instructions program the access engine (load/store with shift
 * alignment, block-pointer management).
 *
 * CUs within a CC, and CCs themselves, are addressed as quarters plus
 * a 4-bit mask within the quarter, which keeps the encoding fixed at
 * 32 bits for up to 16 CUs per CC and 16 CCs.
 */

#ifndef ROBOX_ISA_ISA_HH
#define ROBOX_ISA_ISA_HH

#include <cstdint>
#include <string>

namespace robox::isa
{

/** Data namespaces shared by the three instruction categories. */
enum class Namespace : std::uint8_t
{
    Input = 0,         //!< Control inputs u.
    State = 1,         //!< Robot states x.
    Gradient = 2,      //!< Gradient vectors.
    Hessian = 3,       //!< Hessian blocks.
    Interm = 4,        //!< Intermediate values (compute/comm only).
    LeftNeighbor = 5,  //!< Left-neighbor register (compute/comm only).
    RightNeighbor = 6, //!< Right-neighbor register (compute/comm only).
    Reference = 7,     //!< External reference data (memory only).
    Instruction = 8,   //!< Instruction storage (memory only).
};

const char *namespaceName(Namespace ns);

/** ALU functions encodable in compute instructions. */
enum class AluFunction : std::uint8_t
{
    Add = 0,
    Sub = 1,
    Mul = 2,
    Div = 3,
    Mac = 4,
    Min = 5,
    Max = 6,
    Sin = 7,
    Cos = 8,
    Tan = 9,
    Asin = 10,
    Acos = 11,
    Atan = 12,
    Exp = 13,
    Sqrt = 14,
    Nop = 15,
};

const char *aluFunctionName(AluFunction fn);
/** True for the LUT-backed nonlinear functions. */
bool isNonlinear(AluFunction fn);

/** Queue behavior after a source element is read. */
enum class PopMode : std::uint8_t
{
    Keep = 0,       //!< Leave the element in place.
    Pop = 1,        //!< Pop and discard.
    PopRewrite = 2, //!< Pop and re-enqueue for reuse.
};

const char *popModeName(PopMode mode);

/**
 * Outcome of the checked encoders. decode() is total, but encode() is
 * not: an instruction struct populated from untrusted input (an
 * assembler, a fuzzer, an image being rebuilt from disk) can name
 * fields the 32-bit layouts cannot hold. encodeChecked() reports that
 * as a status; the classic encode() wraps it and fatal()s, matching
 * the loader-side unpackImageChecked() discipline.
 */
enum class EncodeStatus : std::uint8_t
{
    Ok = 0,
    FieldOverflow, //!< A field value exceeds its bit width.
    BadNamespace,  //!< Namespace not addressable by this category.
    BadBurst,      //!< Memory burst outside [1, 16].
};

const char *toString(EncodeStatus status);

// ---------------------------------------------------------------------
// Compute instructions.
// ---------------------------------------------------------------------

enum class ComputeOpcode : std::uint8_t
{
    ScalarQueue = 0, //!< One CU, both sources from queues.
    VectorQueue = 1, //!< SIMD across the CC, queue sources, repeat.
    ScalarImm = 2,   //!< One CU, second source an 8-bit immediate.
    VectorImm = 3,   //!< SIMD with immediate second source.
};

/** A decoded compute instruction. */
struct ComputeInstr
{
    ComputeOpcode opcode = ComputeOpcode::ScalarQueue;
    AluFunction function = AluFunction::Add;
    Namespace dst = Namespace::Interm;
    Namespace src1 = Namespace::Interm;
    PopMode src1Pop = PopMode::Keep;
    std::uint8_t src1Index = 0; //!< Queue index; top 8 addressable.
    Namespace src2 = Namespace::Interm;
    PopMode src2Pop = PopMode::Keep;
    std::uint8_t src2Index = 0;
    std::uint8_t immediate = 0;    //!< Imm variants.
    std::uint8_t vectorLength = 0; //!< SIMD repeat count (0 => 1).

    std::uint32_t encode() const;
    /** Encode without aborting; `*word` is written only on Ok. When
     *  `error` is non-null it receives the diagnostic on failure. */
    EncodeStatus encodeChecked(std::uint32_t *word,
                               std::string *error = nullptr) const;
    static ComputeInstr decode(std::uint32_t word);
    std::string str() const;

    bool operator==(const ComputeInstr &) const = default;
};

// ---------------------------------------------------------------------
// Communication instructions.
// ---------------------------------------------------------------------

enum class CommOpcode : std::uint8_t
{
    Unicast = 0,       //!< Single CU to single CU.
    Broadcast = 1,     //!< Single CU to every CU on the accelerator.
    CuMulticast = 2,   //!< One CU to a subset of CUs within its CC.
    CcMulticast = 3,   //!< One CU to all CUs of a subset of CCs.
    CuAggregation = 4, //!< In-hop reduction over CUs within a CC.
    CcAggregation = 5, //!< Tree-bus reduction across CCs.
    EndOfCode = 7,     //!< Terminates the communication stream.
};

/** Aggregation functions supported by the compute-enabled hops. */
enum class AggFunction : std::uint8_t
{
    Add = 0,
    Mul = 1,
    Min = 2,
    Max = 3,
};

const char *aggFunctionName(AggFunction fn);

/** A decoded communication instruction. */
struct CommInstr
{
    CommOpcode opcode = CommOpcode::Unicast;
    Namespace srcNamespace = Namespace::Interm;
    PopMode srcPop = PopMode::Keep;
    std::uint8_t srcIndex = 0;
    std::uint8_t srcCc = 0;      //!< Source CC id.
    std::uint8_t srcCu = 0;      //!< Source CU id within its CC.
    std::uint8_t dstCc = 0;      //!< Unicast destination CC.
    std::uint8_t dstCu = 0;      //!< Unicast destination CU.
    std::uint8_t quarter = 0;    //!< Target quarter (multicast).
    std::uint8_t mask = 0;       //!< 4-bit mask within the quarter.
    Namespace dstNamespace = Namespace::Interm;
    AggFunction aggFunction = AggFunction::Add; //!< Aggregations.

    std::uint32_t encode() const;
    /** Encode without aborting; `*word` is written only on Ok. When
     *  `error` is non-null it receives the diagnostic on failure. */
    EncodeStatus encodeChecked(std::uint32_t *word,
                               std::string *error = nullptr) const;
    static CommInstr decode(std::uint32_t word);
    std::string str() const;

    bool operator==(const CommInstr &) const = default;
};

// ---------------------------------------------------------------------
// Memory instructions.
// ---------------------------------------------------------------------

enum class MemOpcode : std::uint8_t
{
    Load = 0,     //!< External memory -> global load buffer.
    Store = 1,    //!< Global store buffer -> external memory.
    SetBlock = 2, //!< Change a namespace's block pointer.
    EndOfCode = 3,
};

/** A decoded memory instruction. */
struct MemInstr
{
    MemOpcode opcode = MemOpcode::Load;
    Namespace ns = Namespace::State;
    std::uint16_t offset = 0;    //!< Word offset within the block.
    std::uint8_t shift = 0;      //!< Alignment shift amount.
    std::uint8_t burst = 1;      //!< Consecutive words moved (1..16).
    std::uint16_t block = 0;     //!< SetBlock target block number.

    std::uint32_t encode() const;
    /** Encode without aborting; `*word` is written only on Ok. When
     *  `error` is non-null it receives the diagnostic on failure. */
    EncodeStatus encodeChecked(std::uint32_t *word,
                               std::string *error = nullptr) const;
    static MemInstr decode(std::uint32_t word);
    std::string str() const;

    bool operator==(const MemInstr &) const = default;
};

// ---------------------------------------------------------------------
// Encoding validity.
//
// decode() is total — any 32-bit word yields *some* struct — which is
// the wrong contract for a loader validating a program image that may
// have been corrupted in storage or transit. These predicates answer
// "would the hardware decoder accept this word": assigned opcode,
// in-range namespaces for the category, assigned pop modes, and
// reserved bits zero (everything encode() can produce passes).
// ---------------------------------------------------------------------

/** True when `word` is a well-formed compute instruction. */
bool computeWordValid(std::uint32_t word);
/** True when `word` is a well-formed communication instruction. */
bool commWordValid(std::uint32_t word);
/** True when `word` is a well-formed memory instruction. */
bool memWordValid(std::uint32_t word);

} // namespace robox::isa

#endif // ROBOX_ISA_ISA_HH
