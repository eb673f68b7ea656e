#include "sweep/cache.h"

#include <cstdio>
#include <filesystem>

#include "ckpt/checkpoint.h"
#include "common/assert.h"
#include "common/hash.h"
#include "common/sealed_file.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace p10ee::sweep {

using common::BinReader;
using common::BinWriter;
using common::Error;
using common::ErrorCode;
using common::Expected;
using common::Fnv1a;
using common::Status;

namespace {

void
serializeResult(BinWriter& w, const ShardResult& s)
{
    w.u64(s.index);
    w.str(s.key);
    w.b(s.ok);
    w.u8(static_cast<uint8_t>(s.error.code));
    w.str(s.error.message);
    w.u64(static_cast<uint64_t>(s.retries));
    w.u64(s.cycles);
    w.u64(s.instrs);
    w.f64(s.ipc);
    w.f64(s.powerW);
    w.f64(s.ipcPerW);
    // wallSeconds is host-clock provenance, deliberately not persisted:
    // a cached shard replays with wallSeconds == 0.
    w.str(s.traceName);
    w.u64(s.traceHash);
    w.u64(s.ipcX.size());
    for (size_t i = 0; i < s.ipcX.size(); ++i) {
        w.f64(s.ipcX[i]);
        w.f64(s.ipcY[i]);
    }
    // Chip-scope fields (format version 4): present for every shard;
    // 1-core shards persist cores == 1 and no rows.
    w.u32(static_cast<uint32_t>(s.cores));
    w.u64(s.coreRows.size());
    for (const api::ShardCoreRow& c : s.coreRows) {
        w.u64(c.cycles);
        w.u64(c.stallCycles);
        w.u64(c.effCycles);
        w.u64(c.instrs);
        w.f64(c.ipc);
        w.f64(c.powerW);
        w.f64(c.freqGhz);
    }
    w.f64(s.chipFreqGhz);
    w.f64(s.chipBoost);
    w.u64(s.throttledEpochs);
    w.u64(s.droopTrips);
}

std::optional<ShardResult>
deserializeResult(BinReader& r)
{
    ShardResult s;
    s.index = r.u64();
    s.key = r.str();
    s.ok = r.b();
    uint8_t code = r.u8();
    if (code > static_cast<uint8_t>(ErrorCode::Internal)) {
        return std::nullopt;
    }
    s.error.code = static_cast<ErrorCode>(code);
    s.error.message = r.str();
    s.retries = static_cast<int>(r.u64());
    s.cycles = r.u64();
    s.instrs = r.u64();
    s.ipc = r.f64();
    s.powerW = r.f64();
    s.ipcPerW = r.f64();
    s.wallSeconds = 0.0;
    s.traceName = r.str();
    s.traceHash = r.u64();
    uint64_t n = r.u64();
    if (!r.fits(n, 16))
        return std::nullopt;
    s.ipcX.resize(static_cast<size_t>(n));
    s.ipcY.resize(static_cast<size_t>(n));
    for (size_t i = 0; i < s.ipcX.size(); ++i) {
        s.ipcX[i] = r.f64();
        s.ipcY[i] = r.f64();
    }
    s.cores = static_cast<int>(r.u32());
    uint64_t rows = r.u64();
    if (s.cores < 1 || !r.fits(rows, 7 * 8))
        return std::nullopt;
    s.coreRows.resize(static_cast<size_t>(rows));
    for (api::ShardCoreRow& c : s.coreRows) {
        c.cycles = r.u64();
        c.stallCycles = r.u64();
        c.effCycles = r.u64();
        c.instrs = r.u64();
        c.ipc = r.f64();
        c.powerW = r.f64();
        c.freqGhz = r.f64();
    }
    s.chipFreqGhz = r.f64();
    s.chipBoost = r.f64();
    s.throttledEpochs = r.u64();
    s.droopTrips = r.u64();
    if (r.failed())
        return std::nullopt;
    return s;
}

const common::SealedFile kFile(
    "cache entry", std::string_view("P10SHRD\0", 8),
    {{"format", kCacheFormatVersion},
     {"state-schema", ckpt::kStateSchemaVersion}});

/**
 * Container validation shared by every entry consumer: the sealed-file
 * checks, then the stored key. On success returns a reader over the
 * serialized result that follows the key.
 */
std::optional<BinReader>
openEntry(const std::vector<uint8_t>& bytes, uint64_t key)
{
    Expected<BinReader> body = kFile.open(bytes.data(), bytes.size());
    if (!body || body.value().u64() != key || body.value().failed())
        return std::nullopt;
    return body.value();
}

} // namespace

ShardCache::ShardCache(std::string dir) : dir_(std::move(dir))
{
    P10_ASSERT(!dir_.empty(), "ShardCache requires a directory path");
}

Status
ShardCache::prepare() const
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec || !std::filesystem::is_directory(dir_))
        return Error::invalidArgument(
            "cannot create cache directory: " + dir_);
    return common::okStatus();
}

std::string
ShardCache::canonicalKeyJson(const SweepSpec& spec, const ShardSpec& shard)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("shard_index").value(shard.index);
    w.key("config").value(shard.configName);
    w.key("config_hash").value(ckpt::configHash(shard.config));
    w.key("workload").value(shard.profile.name);
    w.key("profile_hash").value(workloads::profileHash(shard.profile));
    w.key("profile_seed").value(shard.profile.seed);
    w.key("smt").value(shard.smt);
    w.key("cores").value(shard.cores);
    w.key("seed_index").value(shard.seedIndex);
    w.key("instrs").value(spec.instrs);
    w.key("warmup").value(spec.warmup);
    w.key("max_cycles").value(spec.maxCycles);
    w.key("max_retries").value(spec.maxRetries);
    w.key("infra_fail_prob").value(spec.infraFailProb);
    w.key("sweep_seed").value(spec.seed);
    w.key("sample_interval").value(spec.sampleInterval);
    w.endObject();
    return w.str();
}

uint64_t
ShardCache::shardKey(const SweepSpec& spec, const ShardSpec& shard)
{
    Fnv1a h;
    h.str(canonicalKeyJson(spec, shard));
    h.u64(kCacheFormatVersion);
    h.u64(ckpt::kStateSchemaVersion);
    return h.digest();
}

std::string
ShardCache::entryPath(uint64_t key) const
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(key));
    return dir_ + "/" + hex + ".shard";
}

std::vector<uint8_t>
ShardCache::encodeEntry(const SweepSpec& spec, const ShardSpec& shard,
                        const ShardResult& result)
{
    const uint64_t key = shardKey(spec, shard);
    return kFile.seal([&](BinWriter& w) {
        w.u64(key);
        serializeResult(w, result);
    });
}

std::optional<ShardResult>
ShardCache::decodeEntry(const std::vector<uint8_t>& bytes,
                        const SweepSpec& spec, const ShardSpec& shard)
{
    std::optional<BinReader> body = openEntry(bytes, shardKey(spec, shard));
    if (!body)
        return std::nullopt;
    auto res = deserializeResult(*body);
    if (!res || body->remaining() != 0)
        return std::nullopt;
    // Identity paranoia: a 64-bit key collision must not substitute one
    // shard's result for another's.
    if (res->index != shard.index || res->key != shard.key())
        return std::nullopt;
    return res;
}

std::optional<std::vector<uint8_t>>
ShardCache::readBytes(uint64_t key) const
{
    Expected<std::vector<uint8_t>> bytes = kFile.read(entryPath(key));
    if (!bytes || !openEntry(bytes.value(), key))
        return std::nullopt;
    return std::move(bytes.value());
}

Status
ShardCache::writeBytes(uint64_t key,
                       const std::vector<uint8_t>& bytes) const
{
    if (!openEntry(bytes, key))
        return Error::invalidArgument(
            "cache entry bytes fail container validation");
    return kFile.write(entryPath(key), bytes);
}

std::optional<ShardResult>
ShardCache::lookup(const SweepSpec& spec, const ShardSpec& shard) const
{
    // Instrumented three ways: clean miss (no entry file), corrupt
    // miss (an entry existed but failed container validation or
    // decode — every such entry is deliberately a silent miss), hit.
    // The counters are telemetry only; behaviour is unchanged.
    static const obs::MetricId hits =
        obs::metrics().counter("cache.hits");
    static const obs::MetricId misses =
        obs::metrics().counter("cache.misses");
    static const obs::MetricId corruptMisses =
        obs::metrics().counter("cache.corrupt_misses");

    const uint64_t key = shardKey(spec, shard);
    std::error_code ec;
    const bool present = std::filesystem::exists(entryPath(key), ec);
    auto bytes = readBytes(key);
    if (!bytes) {
        obs::metrics().add(present ? corruptMisses : misses);
        return std::nullopt;
    }
    auto result = decodeEntry(*bytes, spec, shard);
    if (!result) {
        obs::metrics().add(corruptMisses);
        return std::nullopt;
    }
    obs::metrics().add(hits);
    return result;
}

Status
ShardCache::insert(const SweepSpec& spec, const ShardSpec& shard,
                   const ShardResult& result) const
{
    return writeBytes(shardKey(spec, shard),
                      encodeEntry(spec, shard, result));
}

} // namespace p10ee::sweep
