/**
 * @file
 * `p10trace/1` — compact versioned on-disk container of pre-decoded
 * instruction traces.
 *
 * The trace ingestion frontend stores captured `isa::TraceInstr`
 * streams the same way the checkpoint subsystem stores simulator
 * state, as a common::SealedFile: a magic tag, a format version,
 * metadata, a payload, and a trailing FNV-1a checksum over everything
 * before it. Every truncated,
 * bit-flipped, stale or fabricated file is a structured
 * `common::Expected` error — never UB, never a crash (the fuzz suite
 * in tests/test_trace.cpp holds this bar under ASan/UBSan).
 *
 * File format (all little-endian, see common/serialize.h):
 *
 *   magic "P10TRACE" | u32 format version
 *   | str name | str dialect | str source
 *   | u64 instr count | u64 content hash | u8 encoding | u32 chunks
 *   | per chunk: u32 instr count | u64 byte length | encoded bytes
 *   | u64 FNV-1a checksum over everything before it
 *
 * Instructions are stored in fixed-capacity chunks so replay decodes
 * one window at a time and a checkpoint cursor seeks without decoding
 * the whole trace. Two chunk encodings exist: `kEncodingRaw` is the
 * canonical 43-byte record verbatim; `kEncodingDelta` zigzag/varint
 * delta-codes pc/addr/target against the previous instruction and
 * elides absent fields behind presence flags (typically 4-5x smaller
 * on real streams). Chunks reset their delta state, so each decodes
 * independently.
 *
 * The *content hash* is the FNV-1a digest of every instruction's
 * canonical serialization in stream order — independent of the chunk
 * encoding chosen and of all metadata. It is the identity that keys
 * shard caches and fleet cache tiers (via `workloads::profileHash`):
 * renaming or re-describing a trace keeps keys stable; mutating one
 * instruction changes them. Because a fabricated file can carry a
 * recomputed checksum, chunk decoding re-validates every semantic
 * range (op class, register numbers, memory tier, toggle) before an
 * instruction reaches the core model.
 */

#ifndef P10EE_TRACE_CONTAINER_H
#define P10EE_TRACE_CONTAINER_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/hash.h"
#include "common/serialize.h"
#include "isa/instr.h"

namespace p10ee::trace {

/** Container-layout version of the trace file format ("p10trace/1"). */
inline constexpr uint32_t kFormatVersion = 1;

/** Chunk encodings. */
inline constexpr uint8_t kEncodingRaw = 0;   ///< canonical records
inline constexpr uint8_t kEncodingDelta = 1; ///< zigzag/varint deltas

/** Default instructions per chunk (the replay decode window). */
inline constexpr uint32_t kDefaultChunkCapacity = 4096;

/** Provenance metadata recorded alongside the instruction payload. */
struct TraceMeta
{
    /** Display name; becomes the "trace:<name>" workload name, so it
        must be non-empty, without '/' or control characters. */
    std::string name;

    /** ISA dialect of the stream (e.g. "power-isa-3.0",
        "power-isa-3.1"). */
    std::string dialect;

    /** Free-form source provenance ("synthetic:xz seed 1",
        "extract:gcc#pc1a0", a capture host, ...). */
    std::string source;
};

/**
 * Validate @p meta against the container rules (used by writers before
 * encoding and by fromBytes() on anything read back).
 */
common::Status validateMeta(const TraceMeta& meta);

/**
 * Serialize one instruction in the canonical (raw) record layout; the
 * content hash is defined over exactly these bytes.
 */
void writeCanonicalInstr(common::BinWriter& w, const isa::TraceInstr& in);

/**
 * One loaded (or just-written) trace: metadata plus encoded chunks,
 * decoded on demand. This is the reader side of the container — it
 * validates the envelope on load and every semantic field on decode.
 */
class TraceData
{
  public:
    const TraceMeta& meta() const { return meta_; }
    uint64_t instrCount() const { return instrCount_; }
    uint64_t contentHash() const { return contentHash_; }
    uint8_t encoding() const { return encoding_; }
    size_t chunkCount() const { return chunks_.size(); }

    /** Global index of chunk @p i's first instruction. */
    uint64_t chunkFirstIndex(size_t i) const;

    /** Instructions in chunk @p i. */
    uint32_t chunkLength(size_t i) const;

    /** Encoded payload bytes across all chunks (diagnostics). */
    size_t payloadBytes() const;

    /**
     * Decode chunk @p i. Semantically invalid records (op class or
     * register out of range, bad memory tier, non-finite toggle) are
     * structured errors — a checksum-valid file can still be hostile.
     */
    common::Expected<std::vector<isa::TraceInstr>>
    decodeChunk(size_t i) const;

    /** decodeChunk() into @p out, reusing its storage (a replay
        window); on an error @p out holds no meaningful records. */
    common::Status decodeChunk(size_t i,
                               std::vector<isa::TraceInstr>& out) const;

    /** Decode every chunk in order. */
    common::Expected<std::vector<isa::TraceInstr>> decodeAll() const;

    /**
     * Full content verification in one streaming pass: decode chunk
     * by chunk through one reused window (memory O(chunk), not
     * O(trace)) and recompute the content hash. The first chunk that
     * fails to decode is the error; a hash mismatch against the stored
     * hash is reported once every chunk has decoded.
     */
    common::Status verifyContent() const;

    /** Serialize to the documented file format. */
    std::vector<uint8_t> toBytes() const;

    /**
     * Parse the documented file format; magic/version/checksum
     * mismatches, truncation, oversize counts and malformed metadata
     * are structured errors.
     */
    static common::Expected<TraceData> fromBytes(const uint8_t* data,
                                                 size_t size);
    static common::Expected<TraceData> fromBytes(
        const std::vector<uint8_t>& bytes);

    /** toBytes() to a file, written atomically (temp + rename). */
    common::Status save(const std::string& path) const;

    /** fromBytes() over the contents of @p path. */
    static common::Expected<TraceData> load(const std::string& path);

  private:
    friend class TraceWriter;

    struct Chunk
    {
        uint32_t count = 0;       ///< instructions in this chunk
        uint64_t firstIndex = 0;  ///< global index of the first one
        std::vector<uint8_t> bytes;
    };

    TraceMeta meta_;
    uint64_t instrCount_ = 0;
    uint64_t contentHash_ = common::Fnv1a::kOffsetBasis;
    uint8_t encoding_ = kEncodingDelta;
    std::vector<Chunk> chunks_;
};

/** The ISSUE-facing name for the reader side of the container. */
using TraceReader = TraceData;

/**
 * Streaming trace producer: feed instructions with add(), close with
 * finish(). Chunking, encoding and the content hash are handled here;
 * the result saves atomically via TraceData::save().
 */
class TraceWriter
{
  public:
    /**
     * @param meta must pass validateMeta() (programming error
     *        otherwise — user-supplied names are validated by the CLI
     *        before construction).
     */
    explicit TraceWriter(TraceMeta meta,
                         uint8_t encoding = kEncodingDelta,
                         uint32_t chunkCapacity = kDefaultChunkCapacity);

    /** Append one instruction to the stream. */
    void add(const isa::TraceInstr& in);

    /** Instructions added so far. */
    uint64_t instrCount() const { return data_.instrCount_; }

    /** Running content hash over everything added so far. */
    uint64_t contentHash() const { return hash_.digest(); }

    /** Mutable metadata (e.g. auto-detected dialect) until finish(). */
    TraceMeta& meta() { return data_.meta_; }

    /**
     * Seal the container. At least one instruction must have been
     * added (an empty trace cannot drive an endless InstrSource).
     * The writer is spent afterwards.
     */
    TraceData finish();

  private:
    void sealChunk();

    TraceData data_;
    uint32_t chunkCapacity_;
    common::Fnv1a hash_;
    std::vector<isa::TraceInstr> pending_;
    bool finished_ = false;
};

} // namespace p10ee::trace

#endif // P10EE_TRACE_CONTAINER_H
