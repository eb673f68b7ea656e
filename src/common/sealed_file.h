/**
 * @file
 * Sealed files: the one container layout behind checkpoints
 * (src/ckpt), `p10trace/1` traces (src/trace) and shard-cache entries
 * (src/sweep). All little-endian (common/serialize.h):
 *
 *   magic[8] | u32 version word ... | body
 *   | u64 FNV-1a checksum over every byte before it
 *
 * open() checks the magic, each version word, the size and the
 * checksum, in that order, before anything reads the body. The order
 * is load-bearing: a file from another format or simulator generation
 * is reported as a version mismatch, not as corruption, although a
 * changed version word breaks the checksum too. The reader open()
 * returns is bounded to the body, so a parser never reads the trailer.
 *
 * write() is atomic: a temp file named after the target, the process
 * id and a per-process counter, then rename(). Concurrent writers of
 * one path, threads or processes, never share a temp file, and readers
 * never see a partial file. read() takes regular files only, sized
 * from the opened file and read in one call.
 */

#ifndef P10EE_COMMON_SEALED_FILE_H
#define P10EE_COMMON_SEALED_FILE_H

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/serialize.h"

namespace p10ee::common {

/** One sealed container format: its magic and version words. */
class SealedFile
{
  public:
    /** One u32 header word: what it versions, and this build's value. */
    struct Version
    {
        const char* name; ///< "format", "state-schema" (errors name it)
        uint32_t value;
    };

    /** @p what names the container in errors ("checkpoint"); @p magic
        is exactly eight bytes; @p versions are in file order. */
    SealedFile(std::string what, std::string_view magic,
               std::vector<Version> versions);

    /** Magic + version words + whatever @p body writes + checksum. */
    std::vector<uint8_t> seal(
        const std::function<void(BinWriter&)>& body) const;

    /** The body of @p data once every check passes; each failure is
        an InvalidArgument error naming the container. */
    Expected<BinReader> open(const uint8_t* data, size_t size) const;

    /** Write @p bytes to @p path atomically. A temp file that cannot
        be opened is NotFound; a short write or failed rename is
        Transient. */
    Status write(const std::string& path,
                 const std::vector<uint8_t>& bytes) const;

    /** The whole of @p path in one sized read. NotFound when it cannot
        be opened or is not a regular file (a directory, a device, a
        FIFO); Transient when the read itself fails. */
    Expected<std::vector<uint8_t>> read(const std::string& path) const;

  private:
    std::string what_;
    std::string magic_;
    std::vector<Version> versions_;
};

} // namespace p10ee::common

#endif // P10EE_COMMON_SEALED_FILE_H
