/**
 * @file
 * Versioned, deterministic binary serialization primitives.
 *
 * The checkpoint subsystem (src/ckpt) and the sweep shard cache
 * (src/sweep) persist simulator state and results as flat byte
 * buffers. Two invariants rule the format:
 *
 *  - *Determinism*: the same logical state always serializes to the
 *    same bytes. Every scalar is written little-endian at a fixed
 *    width, floating-point values as their IEEE-754 bit patterns, and
 *    containers as a length followed by the elements — no padding, no
 *    host byte order, no pointer-dependent iteration.
 *
 *  - *Hostile-input safety*: anything read back may be truncated,
 *    bit-flipped or fabricated (checkpoints live on disk; cache
 *    entries survive code changes). BinReader therefore bounds-checks
 *    every read and latches a sticky failure instead of touching
 *    out-of-range memory; deserializers check ok() and return a
 *    recoverable common::Error, never crash. Length prefixes are
 *    validated against the remaining payload before any allocation,
 *    so a corrupted length cannot trigger a multi-gigabyte resize.
 */

#ifndef P10EE_COMMON_SERIALIZE_H
#define P10EE_COMMON_SERIALIZE_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"

namespace p10ee::common {

/** Append-only little-endian byte-buffer writer. */
class BinWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void u16(uint16_t v) { writeLe(v, 2); }
    void u32(uint32_t v) { writeLe(v, 4); }
    void u64(uint64_t v) { writeLe(v, 8); }

    void b(bool v) { u8(v ? 1 : 0); }

    /** IEEE-754 bit pattern; bit-exact round trip, NaNs included. */
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    f32(float v)
    {
        uint32_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u32(bits);
    }

    /** Length-prefixed (u32) string. */
    void
    str(const std::string& s)
    {
        u32(static_cast<uint32_t>(s.size()));
        const auto* p = reinterpret_cast<const uint8_t*>(s.data());
        buf_.insert(buf_.end(), p, p + s.size());
    }

    /** Raw bytes, no length prefix (an embedded blob). */
    void
    raw(const uint8_t* p, size_t n)
    {
        buf_.insert(buf_.end(), p, p + n);
    }

    void raw(const std::vector<uint8_t>& v) { raw(v.data(), v.size()); }

    /** Length-prefixed (u64) vector of u64 values. */
    void
    u64Vec(const std::vector<uint64_t>& v)
    {
        u64(v.size());
        for (uint64_t x : v)
            u64(x);
    }

    const std::vector<uint8_t>& bytes() const { return buf_; }
    std::vector<uint8_t> takeBytes() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

  private:
    void
    writeLe(uint64_t v, int n)
    {
        for (int i = 0; i < n; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    std::vector<uint8_t> buf_;
};

/**
 * Bounds-checked little-endian reader over a borrowed byte buffer.
 *
 * Every accessor returns a value (zero after a failure) and latches
 * failed() on underflow; deserializers read a whole section, then
 * check ok() once and translate a failure into a recoverable Error.
 * The buffer is borrowed — the caller keeps it alive while reading.
 */
class BinReader
{
  public:
    BinReader(const uint8_t* data, size_t size)
        : data_(data), size_(size)
    {}

    explicit BinReader(const std::vector<uint8_t>& buf)
        : BinReader(buf.data(), buf.size())
    {}

    uint8_t
    u8()
    {
        return static_cast<uint8_t>(readLe(1));
    }

    uint16_t u16() { return static_cast<uint16_t>(readLe(2)); }
    uint32_t u32() { return static_cast<uint32_t>(readLe(4)); }
    uint64_t u64() { return readLe(8); }

    bool b() { return u8() != 0; }

    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    float
    f32()
    {
        uint32_t bits = u32();
        float v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    /** Length-prefixed string; a length past the payload end fails. */
    std::string
    str()
    {
        uint32_t n = u32();
        if (fail_ || n > size_ - pos_) {
            fail_ = true;
            return {};
        }
        std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    /** Length-prefixed u64 vector; length validated before resize. */
    std::vector<uint64_t>
    u64Vec()
    {
        uint64_t n = u64();
        if (fail_ || n > (size_ - pos_) / 8) {
            fail_ = true;
            return {};
        }
        std::vector<uint64_t> v(static_cast<size_t>(n));
        for (auto& x : v)
            x = u64();
        return v;
    }

    /**
     * Validate an element count read from the payload: it fails the
     * reader (and returns false) unless n elements of @p elemBytes
     * each could still fit in the remaining buffer. Call before any
     * count-driven resize so hostile lengths cannot force huge
     * allocations.
     */
    bool
    fits(uint64_t n, size_t elemBytes)
    {
        if (fail_ || elemBytes == 0 ||
            n > (size_ - pos_) / elemBytes) {
            fail_ = true;
            return false;
        }
        return true;
    }

    /** The next @p n bytes (an embedded blob), validated against the
        payload end before any allocation; underflow latches fail. */
    std::vector<uint8_t>
    raw(size_t n)
    {
        if (fail_ || n > size_ - pos_) {
            fail_ = true;
            return {};
        }
        std::vector<uint8_t> v(data_ + pos_, data_ + pos_ + n);
        pos_ += n;
        return v;
    }

    size_t remaining() const { return size_ - pos_; }
    size_t position() const { return pos_; }
    bool failed() const { return fail_; }
    bool ok() const { return !fail_; }

    /** Mark the stream failed (semantic validation by a caller). */
    void poison() { fail_ = true; }

    /**
     * ok() as a Status: InvalidArgument naming @p what on failure.
     * The standard epilogue of every loadState() implementation.
     */
    Status
    status(const std::string& what) const
    {
        if (fail_)
            return Error::invalidArgument(
                what + ": truncated or corrupt serialized data");
        return okStatus();
    }

  private:
    uint64_t
    readLe(int n)
    {
        if (fail_ || static_cast<size_t>(n) > size_ - pos_) {
            fail_ = true;
            return 0;
        }
        uint64_t v = 0;
        for (int i = 0; i < n; ++i)
            v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
                 << (8 * i);
        pos_ += static_cast<size_t>(n);
        return v;
    }

    const uint8_t* data_;
    size_t size_;
    size_t pos_ = 0;
    bool fail_ = false;
};

} // namespace p10ee::common

#endif // P10EE_COMMON_SERIALIZE_H
