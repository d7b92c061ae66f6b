/**
 * @file
 * Implementation of the microprogram container.
 */

#include "compiler/binary.hh"

#include <cstdio>
#include <sstream>

#include "support/crc32.hh"
#include "support/logging.hh"

namespace robox::compiler
{

namespace
{

void
putWord(std::vector<std::uint8_t> &out, std::uint32_t word)
{
    out.push_back(static_cast<std::uint8_t>(word & 0xFF));
    out.push_back(static_cast<std::uint8_t>((word >> 8) & 0xFF));
    out.push_back(static_cast<std::uint8_t>((word >> 16) & 0xFF));
    out.push_back(static_cast<std::uint8_t>((word >> 24) & 0xFF));
}

/** Read the little-endian word at `cursor`; the caller has already
 *  established the image is long enough. */
std::uint32_t
getWord(const std::vector<std::uint8_t> &in, std::size_t &cursor)
{
    std::uint32_t word = static_cast<std::uint32_t>(in[cursor]) |
                         static_cast<std::uint32_t>(in[cursor + 1]) << 8 |
                         static_cast<std::uint32_t>(in[cursor + 2]) << 16 |
                         static_cast<std::uint32_t>(in[cursor + 3]) << 24;
    cursor += 4;
    return word;
}

} // namespace

const char *
imageStatusName(ImageStatus status)
{
    switch (status) {
      case ImageStatus::Ok: return "ok";
      case ImageStatus::Truncated: return "truncated";
      case ImageStatus::BadMagic: return "bad-magic";
      case ImageStatus::BadVersion: return "bad-version";
      case ImageStatus::BadSectionLength: return "bad-section-length";
      case ImageStatus::BadChecksum: return "bad-checksum";
      case ImageStatus::BadInstruction: return "bad-instruction";
    }
    return "?";
}

std::uint32_t
imageChecksum(const std::vector<std::uint8_t> &image)
{
    // CRC over everything except the checksum word itself, chained
    // across the gap so no scratch copy is needed.
    std::uint32_t c = support::crc32(image.data(), kImageCrcOffset);
    return support::crc32(image.data() + kImageHeaderBytes,
                          image.size() - kImageHeaderBytes, c);
}

ImageStatus
verifyImage(const std::vector<std::uint8_t> &image)
{
    if (image.size() < kImageHeaderBytes)
        return ImageStatus::Truncated;
    std::size_t cursor = 0;
    if (getWord(image, cursor) != kImageMagic)
        return ImageStatus::BadMagic;
    if (getWord(image, cursor) != kImageVersion)
        return ImageStatus::BadVersion;
    const std::uint64_t n_compute = getWord(image, cursor);
    const std::uint64_t n_comm = getWord(image, cursor);
    const std::uint64_t n_memory = getWord(image, cursor);
    const std::uint64_t expected =
        kImageHeaderBytes + 4 * (n_compute + n_comm + n_memory);
    if (image.size() != expected)
        return ImageStatus::BadSectionLength;
    // The cursor now sits on the checksum word (kImageCrcOffset).
    if (getWord(image, cursor) != imageChecksum(image))
        return ImageStatus::BadChecksum;
    return ImageStatus::Ok;
}

std::vector<std::uint8_t>
packImage(const IsaStreams &streams)
{
    std::vector<std::uint8_t> image;
    image.reserve(kImageHeaderBytes + streams.codeBytes());
    putWord(image, kImageMagic);
    putWord(image, kImageVersion);
    putWord(image, static_cast<std::uint32_t>(streams.compute.size()));
    putWord(image, static_cast<std::uint32_t>(streams.comm.size()));
    putWord(image, static_cast<std::uint32_t>(streams.memory.size()));
    putWord(image, 0); // CRC placeholder, patched below.
    for (const isa::ComputeInstr &in : streams.compute)
        putWord(image, in.encode());
    for (const isa::CommInstr &in : streams.comm)
        putWord(image, in.encode());
    for (const isa::MemInstr &in : streams.memory)
        putWord(image, in.encode());

    std::uint32_t crc = imageChecksum(image);
    image[kImageCrcOffset] = static_cast<std::uint8_t>(crc & 0xFF);
    image[kImageCrcOffset + 1] =
        static_cast<std::uint8_t>((crc >> 8) & 0xFF);
    image[kImageCrcOffset + 2] =
        static_cast<std::uint8_t>((crc >> 16) & 0xFF);
    image[kImageCrcOffset + 3] =
        static_cast<std::uint8_t>((crc >> 24) & 0xFF);
    return image;
}

ImageStatus
unpackImageChecked(const std::vector<std::uint8_t> &image,
                   IsaStreams &out)
{
    out = IsaStreams{};
    ImageStatus status = verifyImage(image);
    if (status != ImageStatus::Ok)
        return status;

    std::size_t cursor = 8;
    std::uint32_t n_compute = getWord(image, cursor);
    std::uint32_t n_comm = getWord(image, cursor);
    std::uint32_t n_memory = getWord(image, cursor);
    cursor = kImageHeaderBytes;

    IsaStreams streams;
    streams.compute.reserve(n_compute);
    streams.comm.reserve(n_comm);
    streams.memory.reserve(n_memory);
    for (std::uint32_t i = 0; i < n_compute; ++i) {
        std::uint32_t word = getWord(image, cursor);
        if (!isa::computeWordValid(word))
            return ImageStatus::BadInstruction;
        streams.compute.push_back(isa::ComputeInstr::decode(word));
    }
    for (std::uint32_t i = 0; i < n_comm; ++i) {
        std::uint32_t word = getWord(image, cursor);
        if (!isa::commWordValid(word))
            return ImageStatus::BadInstruction;
        streams.comm.push_back(isa::CommInstr::decode(word));
    }
    for (std::uint32_t i = 0; i < n_memory; ++i) {
        std::uint32_t word = getWord(image, cursor);
        if (!isa::memWordValid(word))
            return ImageStatus::BadInstruction;
        streams.memory.push_back(isa::MemInstr::decode(word));
    }
    out = std::move(streams);
    return ImageStatus::Ok;
}

IsaStreams
unpackImage(const std::vector<std::uint8_t> &image)
{
    IsaStreams streams;
    ImageStatus status = unpackImageChecked(image, streams);
    if (status != ImageStatus::Ok)
        fatal("program image rejected: {}", imageStatusName(status));
    return streams;
}

void
writeImage(const IsaStreams &streams, const std::string &path)
{
    std::vector<std::uint8_t> image = packImage(streams);
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file)
        fatal("cannot open '{}' for writing", path);
    std::size_t written =
        std::fwrite(image.data(), 1, image.size(), file);
    std::fclose(file);
    if (written != image.size())
        fatal("short write to '{}' ({} of {} bytes)", path, written,
              image.size());
}

IsaStreams
readImage(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        fatal("cannot open '{}' for reading", path);
    std::fseek(file, 0, SEEK_END);
    long size = std::ftell(file);
    std::fseek(file, 0, SEEK_SET);
    std::vector<std::uint8_t> image(static_cast<std::size_t>(size));
    std::size_t read = std::fread(image.data(), 1, image.size(), file);
    std::fclose(file);
    if (read != image.size())
        fatal("short read from '{}'", path);
    return unpackImage(image);
}

std::string
disassemble(const IsaStreams &streams)
{
    std::ostringstream os;
    char buf[16];
    os << ".compute  ; " << streams.compute.size() << " instructions\n";
    for (const isa::ComputeInstr &in : streams.compute) {
        std::snprintf(buf, sizeof(buf), "%08x", in.encode());
        os << "  " << buf << "  " << in.str() << "\n";
    }
    os << ".comm  ; " << streams.comm.size() << " instructions\n";
    for (const isa::CommInstr &in : streams.comm) {
        std::snprintf(buf, sizeof(buf), "%08x", in.encode());
        os << "  " << buf << "  " << in.str() << "\n";
    }
    os << ".memory  ; " << streams.memory.size() << " instructions\n";
    for (const isa::MemInstr &in : streams.memory) {
        std::snprintf(buf, sizeof(buf), "%08x", in.encode());
        os << "  " << buf << "  " << in.str() << "\n";
    }
    return os.str();
}

} // namespace robox::compiler
