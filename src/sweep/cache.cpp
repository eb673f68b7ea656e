#include "sweep/cache.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "ckpt/checkpoint.h"
#include "common/assert.h"
#include "common/hash.h"
#include "common/serialize.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace p10ee::sweep {

using common::BinReader;
using common::BinWriter;
using common::Error;
using common::ErrorCode;
using common::Fnv1a;
using common::Status;

namespace {

constexpr char kMagic[8] = {'P', '1', '0', 'S', 'H', 'R', 'D', '\0'};

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

/**
 * Container validation shared by every entry consumer: magic, versions,
 * stored key, whole-file checksum. On success returns the [offset, len)
 * of the body between the header and the trailing checksum.
 */
std::optional<std::pair<size_t, size_t>>
validateContainer(const std::vector<uint8_t>& bytes, uint64_t key)
{
    BinReader r(bytes);
    for (char c : kMagic)
        if (r.u8() != static_cast<uint8_t>(c))
            return std::nullopt;
    if (r.u32() != kCacheFormatVersion)
        return std::nullopt;
    if (r.u32() != ckpt::kStateSchemaVersion)
        return std::nullopt;
    if (r.u64() != key)
        return std::nullopt;
    if (r.failed() || bytes.size() < r.position() + 8)
        return std::nullopt;
    BinReader tail(bytes.data() + bytes.size() - 8, 8);
    Fnv1a h;
    h.bytes(bytes.data(), bytes.size() - 8);
    if (h.digest() != tail.u64())
        return std::nullopt;
    return std::make_pair(r.position(), bytes.size() - r.position() - 8);
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
    uint64_t key = shardKey(spec, shard);
    BinWriter w;
    for (char c : kMagic)
        w.u8(static_cast<uint8_t>(c));
    w.u32(kCacheFormatVersion);
    w.u32(ckpt::kStateSchemaVersion);
    w.u64(key);
    serializeResult(w, result);
    std::vector<uint8_t> bytes = w.takeBytes();
    Fnv1a h;
    h.bytes(bytes.data(), bytes.size());
    BinWriter tail;
    tail.u64(h.digest());
    bytes.insert(bytes.end(), tail.bytes().begin(), tail.bytes().end());
    return bytes;
}

std::optional<ShardResult>
ShardCache::decodeEntry(const std::vector<uint8_t>& bytes,
                        const SweepSpec& spec, const ShardSpec& shard)
{
    uint64_t key = shardKey(spec, shard);
    auto span = validateContainer(bytes, key);
    if (!span)
        return std::nullopt;
    BinReader body(bytes.data() + span->first, span->second);
    auto res = deserializeResult(body);
    if (!res || body.remaining() != 0)
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
    std::ifstream f(entryPath(key), std::ios::binary);
    if (!f)
        return std::nullopt;
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                               std::istreambuf_iterator<char>());
    if (!validateContainer(bytes, key))
        return std::nullopt;
    return bytes;
}

Status
ShardCache::writeBytes(uint64_t key,
                       const std::vector<uint8_t>& bytes) const
{
    if (!validateContainer(bytes, key))
        return Error::invalidArgument(
            "cache entry bytes fail container validation");

    std::string path = entryPath(key);
    // Unique temp names within the process: concurrent writers (worker
    // threads serving cache_put for the same key) must not collide on
    // one temp file; across processes the rename target is
    // byte-identical anyway.
    static std::atomic<uint64_t> tmpSerial{0};
    std::string tmp =
        path + ".tmp" + std::to_string(tmpSerial.fetch_add(1));
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            return Error::transient("cannot write cache entry: " + tmp);
        f.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        if (!f)
            return Error::transient("short write: " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Error::transient("cache entry rename failed: " + path);
    }
    return common::okStatus();
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
