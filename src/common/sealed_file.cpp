#include "common/sealed_file.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "common/assert.h"
#include "common/hash.h"

namespace p10ee::common {

SealedFile::SealedFile(std::string what, std::string_view magic,
                       std::vector<Version> versions)
    : what_(std::move(what)), magic_(magic),
      versions_(std::move(versions))
{
    P10_ASSERT(magic_.size() == 8, "sealed-file magic must be 8 bytes");
}

std::vector<uint8_t>
SealedFile::seal(const std::function<void(BinWriter&)>& body) const
{
    BinWriter w;
    for (char c : magic_)
        w.u8(static_cast<uint8_t>(c));
    for (const Version& v : versions_)
        w.u32(v.value);
    body(w);
    w.u64(Fnv1a().bytes(w.bytes().data(), w.size()).digest());
    return w.takeBytes();
}

Expected<BinReader>
SealedFile::open(const uint8_t* data, size_t size) const
{
    BinReader r(data, size);
    for (char c : magic_)
        if (r.u8() != static_cast<uint8_t>(c) || r.failed())
            return Error::invalidArgument("not a p10ee " + what_ +
                                          " (bad magic)");
    for (const Version& v : versions_) {
        const uint32_t got = r.u32();
        if (r.failed())
            return Error::invalidArgument(what_ + " truncated");
        if (got != v.value)
            return Error::invalidArgument(
                "unsupported " + what_ + " " + v.name + " version " +
                std::to_string(got) + " (expected " +
                std::to_string(v.value) + ")");
    }
    if (r.remaining() < 8)
        return Error::invalidArgument(what_ + " truncated");
    const size_t end = size - 8;
    BinReader trailer(data + end, 8);
    if (Fnv1a().bytes(data, end).digest() != trailer.u64())
        return Error::invalidArgument(what_ +
                                      " corrupt (checksum mismatch)");
    return BinReader(data + r.position(), end - r.position());
}

Status
SealedFile::write(const std::string& path,
                  const std::vector<uint8_t>& bytes) const
{
    static std::atomic<uint64_t> serial{0};
    const std::string tmp = path + ".tmp" + std::to_string(::getpid()) +
                            "." + std::to_string(serial.fetch_add(1));
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            return Error::notFound("cannot open for write: " + tmp);
        f.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        if (!f) {
            f.close();
            std::remove(tmp.c_str());
            return Error::transient("short write: " + tmp);
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Error::transient("rename failed: " + path);
    }
    return okStatus();
}

Expected<std::vector<uint8_t>>
SealedFile::read(const std::string& path) const
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return Error::notFound("cannot open " + what_ + ": " + path);
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(f)),
                                std::istreambuf_iterator<char>());
}

} // namespace p10ee::common
