#include "trace/container.h"

#include <cstring>

#include "common/assert.h"
#include "common/sealed_file.h"

namespace p10ee::trace {

using common::BinReader;
using common::BinWriter;
using common::Error;
using common::Expected;
using common::Fnv1a;
using common::Status;

namespace {

const common::SealedFile kFile("trace", "P10TRACE",
                               {{"format", kFormatVersion}});

/** Canonical record size: the raw encoding is exactly this per instr. */
constexpr size_t kCanonicalBytes = 43;

/** Minimum delta-encoded record size (op + flags + regs + 1-byte pc). */
constexpr size_t kMinDeltaBytes = 4;

// Delta-record flag bits (byte 1).
constexpr uint8_t kFlagTaken = 1u << 0;
constexpr uint8_t kFlagPrefixed = 1u << 1;
constexpr uint8_t kFlagGemm = 1u << 2;
constexpr uint8_t kFlagToggle = 1u << 3; ///< non-default toggle follows
constexpr uint8_t kFlagMem = 1u << 4;    ///< addr/size follow
constexpr uint8_t kFlagTarget = 1u << 5; ///< target delta follows
constexpr uint8_t kFlagDest = 1u << 6;   ///< dest register follows
// Bit 7 reserved: must be zero, so fabricated records with unknown
// flags are rejected instead of silently half-decoded.

// Register/tier byte (byte 2): bits 0-2 src presence, 3-5 tier code.
constexpr uint8_t kTierNone = 7; ///< encodes memTier 0xff

uint32_t
toggleBits(float toggle)
{
    uint32_t bits;
    std::memcpy(&bits, &toggle, sizeof(bits));
    return bits;
}

const uint32_t kDefaultToggleBits = toggleBits(isa::TraceInstr{}.toggle);

uint64_t
zigzag(uint64_t prev, uint64_t cur)
{
    const auto d = static_cast<int64_t>(cur - prev);
    return (static_cast<uint64_t>(d) << 1) ^
           static_cast<uint64_t>(d >> 63);
}

uint64_t
unzigzag(uint64_t prev, uint64_t enc)
{
    const uint64_t d = (enc >> 1) ^ (~(enc & 1) + 1);
    return prev + d;
}

void
putVarint(std::vector<uint8_t>& out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

/** Little-endian store of the low @p n bytes of @p v at @p p. */
void
putLe(uint8_t*& p, uint64_t v, int n)
{
    for (int i = 0; i < n; ++i)
        *p++ = static_cast<uint8_t>(v >> (8 * i));
}

/** Little-endian load of @p n bytes at @p p. */
uint64_t
getLe(const uint8_t*& p, int n)
{
    uint64_t v = 0;
    for (int i = 0; i < n; ++i)
        v |= static_cast<uint64_t>(*p++) << (8 * i);
    return v;
}

/**
 * Bounds-checked forward cursor over one delta chunk. A failed read
 * latches: it moves the cursor to the end, so every later read
 * returns 0 without touching memory, and ok stays false.
 */
struct Cursor
{
    const uint8_t* p;
    const uint8_t* end;
    bool ok = true;

    uint64_t
    fail()
    {
        ok = false;
        p = end;
        return 0;
    }

    uint8_t
    byte()
    {
        return p != end ? *p++ : static_cast<uint8_t>(fail());
    }

    uint32_t
    le32()
    {
        if (end - p < 4)
            return static_cast<uint32_t>(fail());
        return static_cast<uint32_t>(getLe(p, 4));
    }

    /** LEB128 u64; truncated or over-long encodings fail. */
    uint64_t
    varint()
    {
        uint64_t v = 0;
        for (int shift = 0; shift < 70 && p != end; shift += 7) {
            const uint8_t b = *p++;
            v |= static_cast<uint64_t>(b & 0x7f) << shift;
            // The 10th byte may only carry the top bit of a u64.
            if ((b & 0x80) == 0)
                return shift == 63 && b > 1 ? fail() : v;
        }
        return fail();
    }
};

/**
 * Semantic validation of a decoded instruction. The envelope checksum
 * only proves the file says what its author wrote — a fabricated file
 * carries a self-consistent checksum, so everything the core model
 * indexes or multiplies with must be range-checked here.
 */
bool
validInstr(const isa::TraceInstr& in)
{
    if (static_cast<uint8_t>(in.op) >=
        static_cast<uint8_t>(isa::OpClass::NumOpClasses))
        return false;
    for (uint16_t s : in.src)
        if (s != isa::reg::kNone && s >= isa::reg::kNumArchRegs)
            return false;
    if (in.dest != isa::reg::kNone && in.dest >= isa::reg::kNumArchRegs)
        return false;
    if (in.memTier != 0xff && in.memTier >= 4)
        return false;
    if (!(in.toggle >= 0.0f && in.toggle <= 1.0f)) // also rejects NaN
        return false;
    return true;
}

void
encodeDelta(std::vector<uint8_t>& out, const isa::TraceInstr& in,
            uint64_t& prevPc, uint64_t& prevAddr)
{
    const bool hasMem =
        in.addr != 0 || in.size != 0 || in.memTier != 0xff;
    const bool hasTarget = in.target != 0;
    const bool hasDest = in.dest != isa::reg::kNone;
    const bool hasToggle = toggleBits(in.toggle) != kDefaultToggleBits;

    uint8_t flags = 0;
    if (in.taken)
        flags |= kFlagTaken;
    if (in.prefixed)
        flags |= kFlagPrefixed;
    if (in.gemm)
        flags |= kFlagGemm;
    if (hasToggle)
        flags |= kFlagToggle;
    if (hasMem)
        flags |= kFlagMem;
    if (hasTarget)
        flags |= kFlagTarget;
    if (hasDest)
        flags |= kFlagDest;

    uint8_t regs = 0;
    for (int i = 0; i < 3; ++i)
        if (in.src[i] != isa::reg::kNone)
            regs |= static_cast<uint8_t>(1u << i);
    const uint8_t tierCode =
        in.memTier == 0xff ? kTierNone : in.memTier;
    regs |= static_cast<uint8_t>(tierCode << 3);

    out.push_back(static_cast<uint8_t>(in.op));
    out.push_back(flags);
    out.push_back(regs);
    for (int i = 0; i < 3; ++i)
        if (in.src[i] != isa::reg::kNone)
            putVarint(out, in.src[i]);
    if (hasDest)
        putVarint(out, in.dest);
    putVarint(out, zigzag(prevPc, in.pc));
    prevPc = in.pc;
    if (hasMem) {
        putVarint(out, zigzag(prevAddr, in.addr));
        putVarint(out, in.size);
        prevAddr = in.addr;
    }
    if (hasTarget)
        putVarint(out, zigzag(in.pc, in.target));
    if (hasToggle) {
        const uint32_t bits = toggleBits(in.toggle);
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<uint8_t>(bits >> (8 * i)));
    }
}

bool
decodeDelta(Cursor& c, isa::TraceInstr& out, uint64_t& prevPc,
            uint64_t& prevAddr)
{
    isa::TraceInstr in;
    const uint8_t op = c.byte();
    const uint8_t flags = c.byte();
    const uint8_t regs = c.byte();
    if ((flags & 0x80) != 0 || (regs & 0xc0) != 0)
        return false;
    const uint8_t tierCode = (regs >> 3) & 0x7;
    // A tier code on a memory-less record is a fabrication.
    if ((flags & kFlagMem) == 0 && tierCode != kTierNone)
        return false;
    in.op = static_cast<isa::OpClass>(op);
    in.taken = (flags & kFlagTaken) != 0;
    in.prefixed = (flags & kFlagPrefixed) != 0;
    in.gemm = (flags & kFlagGemm) != 0;
    for (int i = 0; i < 3; ++i)
        if ((regs & (1u << i)) != 0)
            in.src[i] = static_cast<uint16_t>(c.varint());
    if ((flags & kFlagDest) != 0)
        in.dest = static_cast<uint16_t>(c.varint());
    in.pc = unzigzag(prevPc, c.varint());
    prevPc = in.pc;
    if ((flags & kFlagMem) != 0) {
        in.addr = unzigzag(prevAddr, c.varint());
        in.size = static_cast<uint16_t>(c.varint());
        prevAddr = in.addr;
        in.memTier = tierCode == kTierNone ? 0xff : tierCode;
    }
    if ((flags & kFlagTarget) != 0)
        in.target = unzigzag(in.pc, c.varint());
    if ((flags & kFlagToggle) != 0) {
        const uint32_t bits = c.le32();
        std::memcpy(&in.toggle, &bits, sizeof(bits));
    }
    if (!c.ok || !validInstr(in))
        return false;
    out = in;
    return true;
}

/** The canonical record of @p in into @p out (kCanonicalBytes): the
    bytes the content hash is defined over. */
void
canonicalRecord(const isa::TraceInstr& in, uint8_t* out)
{
    putLe(out, static_cast<uint8_t>(in.op), 1);
    for (uint16_t s : in.src)
        putLe(out, s, 2);
    putLe(out, in.dest, 2);
    putLe(out, in.pc, 8);
    putLe(out, in.addr, 8);
    putLe(out, in.size, 2);
    putLe(out, in.memTier, 1);
    putLe(out, in.taken ? 1 : 0, 1);
    putLe(out, in.target, 8);
    putLe(out, in.prefixed ? 1 : 0, 1);
    putLe(out, in.gemm ? 1 : 0, 1);
    putLe(out, toggleBits(in.toggle), 4);
}

/** Absorb @p in's canonical record into @p h. */
void
hashRecord(Fnv1a& h, const isa::TraceInstr& in)
{
    uint8_t rec[kCanonicalBytes];
    canonicalRecord(in, rec);
    h.bytes(rec, sizeof(rec));
}

/** The instruction in the canonical record at @p p. */
isa::TraceInstr
readCanonical(const uint8_t* p)
{
    isa::TraceInstr in;
    in.op = static_cast<isa::OpClass>(getLe(p, 1));
    for (uint16_t& s : in.src)
        s = static_cast<uint16_t>(getLe(p, 2));
    in.dest = static_cast<uint16_t>(getLe(p, 2));
    in.pc = getLe(p, 8);
    in.addr = getLe(p, 8);
    in.size = static_cast<uint16_t>(getLe(p, 2));
    in.memTier = static_cast<uint8_t>(getLe(p, 1));
    in.taken = getLe(p, 1) != 0;
    in.target = getLe(p, 8);
    in.prefixed = getLe(p, 1) != 0;
    in.gemm = getLe(p, 1) != 0;
    const auto bits = static_cast<uint32_t>(getLe(p, 4));
    std::memcpy(&in.toggle, &bits, sizeof(bits));
    return in;
}

} // namespace

Status
validateMeta(const TraceMeta& meta)
{
    auto printable = [](const std::string& s) {
        for (char c : s)
            if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f)
                return false;
        return true;
    };
    if (meta.name.empty())
        return Error::invalidArgument("trace name must be non-empty");
    if (meta.name.size() > 200 || meta.dialect.size() > 200 ||
        meta.source.size() > 4096)
        return Error::invalidArgument(
            "trace metadata field too long (name/dialect <= 200, "
            "source <= 4096 bytes)");
    if (meta.name.find('/') != std::string::npos)
        return Error::invalidArgument(
            "trace name must not contain '/' (it becomes the "
            "'trace:<name>' workload name inside 'config/workload/"
            "smt/seed' shard keys)");
    if (!printable(meta.name) || !printable(meta.dialect) ||
        !printable(meta.source))
        return Error::invalidArgument(
            "trace metadata must not contain control characters");
    return common::okStatus();
}

void
writeCanonicalInstr(BinWriter& w, const isa::TraceInstr& in)
{
    uint8_t rec[kCanonicalBytes];
    canonicalRecord(in, rec);
    w.raw(rec, sizeof(rec));
}

uint64_t
TraceData::chunkFirstIndex(size_t i) const
{
    P10_ASSERT(i < chunks_.size(), "chunk index out of range");
    return chunks_[i].firstIndex;
}

uint32_t
TraceData::chunkLength(size_t i) const
{
    P10_ASSERT(i < chunks_.size(), "chunk index out of range");
    return chunks_[i].count;
}

size_t
TraceData::payloadBytes() const
{
    size_t n = 0;
    for (const Chunk& c : chunks_)
        n += c.bytes.size();
    return n;
}

Status
TraceData::decodeChunk(size_t i, std::vector<isa::TraceInstr>& out) const
{
    P10_ASSERT(i < chunks_.size(), "chunk index out of range");
    const Chunk& c = chunks_[i];
    auto corrupt = [i](uint32_t k) {
        return Error::invalidArgument(
            "trace chunk " + std::to_string(i) + " record " +
            std::to_string(k) + ": corrupt or out-of-range fields");
    };
    out.resize(c.count);
    const uint8_t* p = c.bytes.data();
    if (encoding_ == kEncodingRaw) {
        if (c.bytes.size() != c.count * kCanonicalBytes)
            return Error::invalidArgument(
                "trace chunk " + std::to_string(i) +
                ": raw payload size does not match its record count");
        for (uint32_t k = 0; k < c.count; ++k, p += kCanonicalBytes) {
            out[k] = readCanonical(p);
            if (!validInstr(out[k]))
                return corrupt(k);
        }
        return common::okStatus();
    }
    Cursor cur{p, p + c.bytes.size()};
    uint64_t prevPc = 0;
    uint64_t prevAddr = 0;
    for (uint32_t k = 0; k < c.count; ++k)
        if (!decodeDelta(cur, out[k], prevPc, prevAddr))
            return corrupt(k);
    if (cur.p != cur.end)
        return Error::invalidArgument(
            "trace chunk " + std::to_string(i) +
            ": trailing bytes after the last record");
    return common::okStatus();
}

Expected<std::vector<isa::TraceInstr>>
TraceData::decodeChunk(size_t i) const
{
    std::vector<isa::TraceInstr> out;
    if (Status st = decodeChunk(i, out); !st)
        return st.error();
    return out;
}

Expected<std::vector<isa::TraceInstr>>
TraceData::decodeAll() const
{
    std::vector<isa::TraceInstr> out;
    out.reserve(static_cast<size_t>(instrCount_));
    std::vector<isa::TraceInstr> window;
    for (size_t i = 0; i < chunks_.size(); ++i) {
        if (Status st = decodeChunk(i, window); !st)
            return st.error();
        out.insert(out.end(), window.begin(), window.end());
    }
    return out;
}

Status
TraceData::verifyContent() const
{
    std::vector<isa::TraceInstr> window; // reused: memory is O(chunk)
    Fnv1a h;
    for (size_t i = 0; i < chunks_.size(); ++i) {
        if (Status st = decodeChunk(i, window); !st)
            return st;
        for (const isa::TraceInstr& in : window)
            hashRecord(h, in);
    }
    if (h.digest() != contentHash_)
        return Error::invalidArgument(
            "trace content hash mismatch (payload does not match the "
            "stored identity; file edited or fabricated)");
    return common::okStatus();
}

std::vector<uint8_t>
TraceData::toBytes() const
{
    return kFile.seal([&](BinWriter& w) {
        w.str(meta_.name);
        w.str(meta_.dialect);
        w.str(meta_.source);
        w.u64(instrCount_);
        w.u64(contentHash_);
        w.u8(encoding_);
        w.u32(static_cast<uint32_t>(chunks_.size()));
        for (const Chunk& c : chunks_) {
            w.u32(c.count);
            w.u64(c.bytes.size());
            w.raw(c.bytes);
        }
    });
}

Expected<TraceData>
TraceData::fromBytes(const uint8_t* data, size_t size)
{
    Expected<BinReader> body = kFile.open(data, size);
    if (!body)
        return body.error();
    BinReader& r = body.value();
    TraceData t;
    t.meta_.name = r.str();
    t.meta_.dialect = r.str();
    t.meta_.source = r.str();
    if (r.failed())
        return Error::invalidArgument("trace truncated");
    if (Status st = validateMeta(t.meta_); !st)
        return st.error();
    t.instrCount_ = r.u64();
    t.contentHash_ = r.u64();
    t.encoding_ = r.u8();
    if (r.failed())
        return Error::invalidArgument("trace truncated");
    if (t.instrCount_ == 0)
        return Error::invalidArgument(
            "trace holds zero instructions (an empty trace cannot "
            "drive a replay source)");
    if (t.encoding_ != kEncodingRaw && t.encoding_ != kEncodingDelta)
        return Error::invalidArgument(
            "unknown trace chunk encoding " +
            std::to_string(t.encoding_));
    const uint32_t chunkCount = r.u32();
    // Every chunk costs at least a 12-byte header: a fabricated count
    // must fail here, before any allocation sized from it.
    if (!r.fits(chunkCount, 12))
        return Error::invalidArgument(
            "trace chunk count exceeds the file size");
    if (chunkCount == 0)
        return Error::invalidArgument("trace has no chunks");
    t.chunks_.reserve(chunkCount);
    uint64_t total = 0;
    const size_t minRecord = t.encoding_ == kEncodingRaw
                                 ? kCanonicalBytes
                                 : kMinDeltaBytes;
    for (uint32_t i = 0; i < chunkCount; ++i) {
        Chunk c;
        c.count = r.u32();
        const uint64_t nbytes = r.u64();
        if (r.failed() || nbytes > r.remaining())
            return Error::invalidArgument(
                "trace truncated inside chunk " + std::to_string(i));
        if (c.count == 0 ||
            static_cast<uint64_t>(c.count) > nbytes / minRecord)
            return Error::invalidArgument(
                "trace chunk " + std::to_string(i) +
                ": record count inconsistent with its payload size");
        c.firstIndex = total;
        total += c.count;
        c.bytes = r.raw(static_cast<size_t>(nbytes));
        t.chunks_.push_back(std::move(c));
    }
    if (total != t.instrCount_)
        return Error::invalidArgument(
            "trace instruction count does not match its chunks");
    if (r.remaining() != 0)
        return Error::invalidArgument(
            "trace has trailing bytes after the last chunk");
    return t;
}

Expected<TraceData>
TraceData::fromBytes(const std::vector<uint8_t>& bytes)
{
    return fromBytes(bytes.data(), bytes.size());
}

Status
TraceData::save(const std::string& path) const
{
    return kFile.write(path, toBytes());
}

Expected<TraceData>
TraceData::load(const std::string& path)
{
    Expected<std::vector<uint8_t>> bytes = kFile.read(path);
    if (!bytes)
        return bytes.error();
    Expected<TraceData> t = fromBytes(bytes.value());
    if (!t)
        return Error(t.error().code, path + ": " + t.error().message);
    return t;
}

TraceWriter::TraceWriter(TraceMeta meta, uint8_t encoding,
                         uint32_t chunkCapacity)
    : chunkCapacity_(chunkCapacity)
{
    P10_ASSERT(validateMeta(meta).ok(),
               "TraceWriter metadata fails validateMeta() — CLI "
               "callers must validate user input first");
    P10_ASSERT(encoding == kEncodingRaw || encoding == kEncodingDelta,
               "unknown trace encoding");
    P10_ASSERT(chunkCapacity_ >= 1, "chunk capacity must be >= 1");
    data_.meta_ = std::move(meta);
    data_.encoding_ = encoding;
}

void
TraceWriter::add(const isa::TraceInstr& in)
{
    P10_ASSERT(!finished_, "TraceWriter::add after finish()");
    P10_ASSERT(validInstr(in),
               "instruction fails trace range validation");
    hashRecord(hash_, in);
    pending_.push_back(in);
    ++data_.instrCount_;
    if (pending_.size() >= chunkCapacity_)
        sealChunk();
}

void
TraceWriter::sealChunk()
{
    if (pending_.empty())
        return;
    TraceData::Chunk c;
    c.count = static_cast<uint32_t>(pending_.size());
    c.firstIndex = data_.instrCount_ - pending_.size();
    if (data_.encoding_ == kEncodingRaw) {
        BinWriter w;
        for (const isa::TraceInstr& in : pending_)
            writeCanonicalInstr(w, in);
        c.bytes = w.takeBytes();
    } else {
        uint64_t prevPc = 0;
        uint64_t prevAddr = 0;
        for (const isa::TraceInstr& in : pending_)
            encodeDelta(c.bytes, in, prevPc, prevAddr);
    }
    data_.chunks_.push_back(std::move(c));
    pending_.clear();
}

TraceData
TraceWriter::finish()
{
    P10_ASSERT(!finished_, "TraceWriter::finish called twice");
    P10_ASSERT(data_.instrCount_ >= 1,
               "an empty trace cannot drive a replay source");
    finished_ = true;
    sealChunk();
    data_.contentHash_ = hash_.digest();
    return std::move(data_);
}

} // namespace p10ee::trace
