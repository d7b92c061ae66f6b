/**
 * @file
 * Microprogram container: serialization of the three ISA streams to a
 * deployable binary image and back, plus whole-program disassembly.
 *
 * The image is what the host would flash into the accelerator's
 * INSTRUCTION namespace: a fixed header (magic, version, stream
 * lengths, CRC-32 of everything but the checksum word itself) followed
 * by the three streams of 32-bit little-endian words in compute /
 * communication / memory order.
 *
 * The checksum makes the program store self-checking: the loader
 * refuses a corrupted image at flash time, and a resident image can be
 * re-verified mid-run (verifyImage).
 */

#ifndef ROBOX_COMPILER_BINARY_HH
#define ROBOX_COMPILER_BINARY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/codegen.hh"

namespace robox::compiler
{

/** Magic number at the head of a RoboX program image ("RBX1"). */
constexpr std::uint32_t kImageMagic = 0x31584252;
/** Current image format version (2 added the header CRC-32). */
constexpr std::uint32_t kImageVersion = 2;
/** Header size in bytes: magic, version, three stream lengths, CRC. */
constexpr std::size_t kImageHeaderBytes = 24;
/** Byte offset of the CRC-32 word within the header. */
constexpr std::size_t kImageCrcOffset = 20;

/** Why an image failed to load (Ok = it didn't). */
enum class ImageStatus : std::uint8_t
{
    Ok = 0,
    Truncated,        //!< Shorter than the fixed header.
    BadMagic,         //!< First word is not "RBX1".
    BadVersion,       //!< Unsupported format version.
    BadSectionLength, //!< Stream lengths disagree with the image size.
    BadChecksum,      //!< CRC-32 mismatch: the image bits are corrupt.
    BadInstruction,   //!< A word the hardware decoder would reject.
};

const char *imageStatusName(ImageStatus status);

/** Serialize the streams into a flat binary image (checksummed). */
std::vector<std::uint8_t> packImage(const IsaStreams &streams);

/**
 * Parse a binary image back into instruction streams, validating the
 * header, the checksum, and every instruction word. On failure `out`
 * is left empty and the reason is returned; nothing is thrown and
 * nothing terminates, so callers can route a bad image into the
 * recovery ladder instead of dying.
 */
ImageStatus unpackImageChecked(const std::vector<std::uint8_t> &image,
                               IsaStreams &out);

/** Recompute the CRC-32 an intact image would carry in its header. */
std::uint32_t imageChecksum(const std::vector<std::uint8_t> &image);

/**
 * Integrity-check an image without decoding it: header fields and
 * CRC-32 only. Cheap enough to re-run against the resident image
 * mid-flight, which is how program-store corruption is detected after
 * load time.
 */
ImageStatus verifyImage(const std::vector<std::uint8_t> &image);

/**
 * Parse a binary image back into instruction streams. fatal() on any
 * non-Ok ImageStatus (convenience wrapper over unpackImageChecked for
 * tools that want to die loudly on a bad file).
 */
IsaStreams unpackImage(const std::vector<std::uint8_t> &image);

/** Write an image to a file; fatal() on I/O failure. */
void writeImage(const IsaStreams &streams, const std::string &path);

/** Read an image from a file; fatal() on I/O failure. */
IsaStreams readImage(const std::string &path);

/** Disassemble all three streams into a human-readable listing. */
std::string disassemble(const IsaStreams &streams);

} // namespace robox::compiler

#endif // ROBOX_COMPILER_BINARY_HH
