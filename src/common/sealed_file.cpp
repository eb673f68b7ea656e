#include "common/sealed_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>

#include "common/assert.h"
#include "common/hash.h"

namespace p10ee::common {

namespace {

/** A file descriptor, closed when its holder goes out of scope. */
class OpenFile
{
  public:
    explicit OpenFile(int fd) : fd_(fd) {}
    ~OpenFile()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    OpenFile(const OpenFile&) = delete;
    OpenFile& operator=(const OpenFile&) = delete;

    int fd() const { return fd_; }

  private:
    int fd_;
};

} // namespace

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
    // O_NONBLOCK so a FIFO cannot stall the open; regular-file reads
    // ignore it.
    const OpenFile f(
        ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK));
    if (f.fd() < 0)
        return Error::notFound("cannot open " + what_ + ": " + path);
    // The size comes from the opened file: a directory opens fine and
    // a device has no end, so anything but a regular file is refused
    // before a byte is read.
    struct stat st;
    if (::fstat(f.fd(), &st) != 0 || !S_ISREG(st.st_mode))
        return Error::notFound("cannot open " + what_ + ": " + path +
                               " (not a regular file)");
    std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
    size_t got = 0;
    while (got < bytes.size()) {
        const ssize_t n =
            ::read(f.fd(), bytes.data() + got, bytes.size() - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            return Error::transient("cannot read " + what_ + ": " + path);
        if (n == 0)
            break;
        got += static_cast<size_t>(n);
    }
    // A file that shrank under the read comes back short; open()
    // rejects it like any other truncation.
    bytes.resize(got);
    return bytes;
}

} // namespace p10ee::common
