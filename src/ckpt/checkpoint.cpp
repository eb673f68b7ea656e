#include "ckpt/checkpoint.h"

#include "common/hash.h"
#include "common/sealed_file.h"

namespace p10ee::ckpt {

using common::BinReader;
using common::BinWriter;
using common::Error;
using common::Expected;
using common::Fnv1a;
using common::Status;

namespace {

const common::SealedFile kFile(
    "checkpoint", std::string_view("P10CKPT\0", 8),
    {{"format", kFormatVersion}, {"state-schema", kStateSchemaVersion}});

void
serializeCacheParams(BinWriter& w, const core::CacheParams& p)
{
    w.u32(p.sizeBytes);
    w.u32(p.ways);
    w.u32(p.lineSize);
    w.u32(p.latency);
    w.u32(p.occupancy);
}

void
serializeBranchParams(BinWriter& w, const core::BranchParams& p)
{
    w.u64(static_cast<uint64_t>(p.bimodalBits));
    w.u64(static_cast<uint64_t>(p.gshareBits));
    w.u64(static_cast<uint64_t>(p.gshareHist));
    w.b(p.secondGshare);
    w.u64(static_cast<uint64_t>(p.gshare2Bits));
    w.u64(static_cast<uint64_t>(p.gshare2Hist));
    w.b(p.localPattern);
    w.u64(static_cast<uint64_t>(p.localHistBits));
    w.u64(static_cast<uint64_t>(p.localBits));
    w.u64(static_cast<uint64_t>(p.choiceBits));
    w.u64(static_cast<uint64_t>(p.indirectBits));
    w.u64(static_cast<uint64_t>(p.indirectWays));
    w.b(p.indirectPathHist);
}

/**
 * Serialize every CoreConfig field, in declaration order, into the
 * deterministic wire format. Exhaustive on purpose: the config hash is
 * computed over these bytes, so a field missing here would let two
 * different machines alias one checkpoint.
 */
void
serializeConfig(BinWriter& w, const core::CoreConfig& c)
{
    w.str(c.name);

    w.u64(static_cast<uint64_t>(c.fetchWidth));
    w.u64(static_cast<uint64_t>(c.decodeWidth));
    w.u64(static_cast<uint64_t>(c.frontendStages));
    w.u64(static_cast<uint64_t>(c.ibufferEntries));
    w.u64(static_cast<uint64_t>(c.redirectPenalty));
    w.u64(static_cast<uint64_t>(c.takenBranchBubble));
    w.b(c.fusion);
    w.b(c.prefixSupport);
    w.f64(c.fusionCoverage);
    serializeBranchParams(w, c.bp);

    w.b(c.eaTaggedL1);
    serializeCacheParams(w, c.l1i);
    serializeCacheParams(w, c.l1d);
    serializeCacheParams(w, c.l2);
    serializeCacheParams(w, c.l3);
    w.u32(c.memLatency);
    w.u32(c.memOccupancy);
    w.u64(static_cast<uint64_t>(c.eratEntries));
    w.u64(static_cast<uint64_t>(c.tlbEntries));
    w.u32(c.eratMissPenalty);
    w.u32(c.tlbMissPenalty);
    w.u32(c.pageBytes);

    w.u64(static_cast<uint64_t>(c.robSize));
    w.u64(static_cast<uint64_t>(c.ldqSize));
    w.u64(static_cast<uint64_t>(c.ldqSizeSmt));
    w.u64(static_cast<uint64_t>(c.stqSize));
    w.u64(static_cast<uint64_t>(c.stqSizeSmt));
    w.u64(static_cast<uint64_t>(c.lmqSize));
    w.u64(static_cast<uint64_t>(c.dispatchWidth));
    w.u64(static_cast<uint64_t>(c.commitWidth));
    w.u64(static_cast<uint64_t>(c.issueWidth));

    w.u64(static_cast<uint64_t>(c.aluPorts));
    w.u64(static_cast<uint64_t>(c.fpPorts));
    w.u64(static_cast<uint64_t>(c.vsuIntPorts));
    w.u64(static_cast<uint64_t>(c.ldPorts));
    w.u64(static_cast<uint64_t>(c.stPorts));
    w.u64(static_cast<uint64_t>(c.lsCombined));
    w.u64(static_cast<uint64_t>(c.brPorts));
    w.u64(static_cast<uint64_t>(c.mmaUnits));

    w.u64(static_cast<uint64_t>(c.aluLat));
    w.u64(static_cast<uint64_t>(c.mulLat));
    w.u64(static_cast<uint64_t>(c.divLat));
    w.u64(static_cast<uint64_t>(c.fpLat));
    w.u64(static_cast<uint64_t>(c.vsuLat));
    w.u64(static_cast<uint64_t>(c.mmaLat));
    w.u64(static_cast<uint64_t>(c.mmaAccLat));
    w.u64(static_cast<uint64_t>(c.loadToVsuPenalty));

    w.f64(c.clockGateQuality);
    w.f64(c.dataGateQuality);
    w.b(c.unifiedRf);
    w.f64(c.switchEnergyScale);
    w.f64(c.latchClockScale);

    w.u64(static_cast<uint64_t>(c.prefetchStreams));
    w.u64(static_cast<uint64_t>(c.prefetchDepth));
    w.b(c.storeMerge);
    w.b(c.store32B);
}

} // namespace

uint64_t
configHash(const core::CoreConfig& cfg)
{
    BinWriter w;
    serializeConfig(w, cfg);
    Fnv1a h;
    h.bytes(w.bytes().data(), w.size());
    return h.digest();
}

Checkpoint
Checkpoint::capture(
    const core::CoreModel& model,
    const std::vector<workloads::CheckpointableSource*>& sources,
    CheckpointMeta meta)
{
    Checkpoint ck;
    ck.meta_ = std::move(meta);
    ck.meta_.numThreads = static_cast<uint32_t>(sources.size());
    ck.cfgHash_ = configHash(model.config());

    BinWriter w;
    model.saveState(w);
    w.u32(static_cast<uint32_t>(sources.size()));
    for (const auto* src : sources)
        src->saveState(w);
    ck.payload_ = w.takeBytes();
    return ck;
}

Checkpoint
Checkpoint::fromParts(CheckpointMeta meta, uint64_t stateHash,
                      std::vector<uint8_t> payload)
{
    Checkpoint ck;
    ck.meta_ = std::move(meta);
    ck.cfgHash_ = stateHash;
    ck.payload_ = std::move(payload);
    return ck;
}

Status
Checkpoint::restore(
    core::CoreModel& model,
    const std::vector<workloads::CheckpointableSource*>& sources) const
{
    if (configHash(model.config()) != cfgHash_)
        return Error::invalidConfig(
            "checkpoint was captured under a different core config "
            "(config hash mismatch; checkpoint has '" +
            meta_.configName + "')");
    if (sources.size() != meta_.numThreads)
        return Error::invalidArgument(
            "checkpoint has " + std::to_string(meta_.numThreads) +
            " thread(s) but " + std::to_string(sources.size()) +
            " source(s) were supplied");

    BinReader r(payload_);
    if (auto st = model.loadState(r); !st.ok())
        return st;
    uint32_t n = r.u32();
    if (!r.ok() || n != sources.size())
        return Error::invalidArgument(
            "checkpoint payload: workload source count mismatch");
    for (auto* src : sources)
        if (auto st = src->loadState(r); !st.ok())
            return st;
    if (r.remaining() != 0)
        return Error::invalidArgument(
            "checkpoint payload: trailing bytes after state");
    return common::okStatus();
}

std::vector<uint8_t>
Checkpoint::toBytes() const
{
    return kFile.seal([&](BinWriter& w) {
        w.u64(cfgHash_);
        w.str(meta_.configName);
        w.str(meta_.workload);
        w.u32(meta_.numThreads);
        w.u64(meta_.warmupInstrs);
        w.u64(meta_.seed);
        w.u64(payload_.size());
        w.raw(payload_);
    });
}

Expected<Checkpoint>
Checkpoint::fromBytes(const uint8_t* data, size_t size)
{
    Expected<BinReader> body = kFile.open(data, size);
    if (!body)
        return body.error();
    BinReader& r = body.value();
    Checkpoint ck;
    ck.cfgHash_ = r.u64();
    ck.meta_.configName = r.str();
    ck.meta_.workload = r.str();
    ck.meta_.numThreads = r.u32();
    ck.meta_.warmupInstrs = r.u64();
    ck.meta_.seed = r.u64();
    const uint64_t payloadSize = r.u64();
    // The payload must account for exactly the rest of the body.
    if (r.failed() || payloadSize != r.remaining())
        return Error::invalidArgument(
            "checkpoint truncated or payload size mismatch");
    ck.payload_ = r.raw(payloadSize);
    return ck;
}

Expected<Checkpoint>
Checkpoint::fromBytes(const std::vector<uint8_t>& bytes)
{
    return fromBytes(bytes.data(), bytes.size());
}

Status
Checkpoint::save(const std::string& path) const
{
    return kFile.write(path, toBytes());
}

Expected<Checkpoint>
Checkpoint::load(const std::string& path)
{
    Expected<std::vector<uint8_t>> bytes = kFile.read(path);
    if (!bytes)
        return bytes.error();
    return fromBytes(bytes.value());
}

} // namespace p10ee::ckpt
