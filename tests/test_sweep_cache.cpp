/**
 * @file
 * Shard-cache tests: key stability, robustness of the entry
 * deserializer, and the warm-vs-cold byte-identity contract.
 *
 * The cache must only ever save work: any corrupt, truncated, stale or
 * colliding entry is a miss (the shard re-simulates), and a warm run's
 * merged report is byte-identical to a cold run's. The hostile-input
 * suites (names carrying Fuzz/Corrupt/Stale run under ASan/UBSan in
 * CI) drive the deserializers with mutated bytes. Spec JSON parsing is
 * fuzzed here too — it feeds the cache key, so it shares the
 * never-crash bar.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "sweep/cache.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

using namespace p10ee;
using sweep::ShardCache;
using sweep::ShardResult;
using sweep::ShardSpec;
using sweep::SweepSpec;

namespace {

/** Tiny two-shard spec: fast enough to simulate in every test. */
SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.configs = {"power10"};
    spec.workloads = {"mcf"};
    spec.smt = {1, 2};
    spec.seeds = 1;
    spec.instrs = 2000;
    spec.warmup = 500;
    spec.seed = 11;
    return spec;
}

std::vector<ShardSpec>
expandOrDie(const SweepSpec& spec)
{
    auto shards = spec.expand();
    EXPECT_TRUE(shards.ok()) << shards.error().str();
    return shards.value();
}

/** Fresh per-test cache directory under the system temp dir. */
struct TempCacheDir
{
    std::string path;
    explicit TempCacheDir(const std::string& stem)
    {
        path = (std::filesystem::temp_directory_path() /
                ("p10ee_" + stem))
                   .string();
        std::filesystem::remove_all(path);
    }
    ~TempCacheDir() { std::filesystem::remove_all(path); }
};

std::vector<uint8_t>
readEntry(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good()) << path;
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());
    return bytes;
}

void
writeEntry(const std::string& path, const std::vector<uint8_t>& bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/** A representative ok result for insert/lookup round trips. */
ShardResult
okResult(const ShardSpec& shard)
{
    ShardResult r;
    r.index = shard.index;
    r.key = shard.key();
    r.ok = true;
    r.retries = 1;
    r.cycles = 123456;
    r.instrs = 2000;
    r.ipc = 1.625;
    r.powerW = 0.75;
    r.ipcPerW = r.ipc / r.powerW;
    r.wallSeconds = 9.9; // diagnostic only; must NOT survive the cache
    r.ipcX = {512.0, 1024.0};
    r.ipcY = {1.5, 1.75};
    return r;
}

/** Everything lookup() must reproduce (wallSeconds excluded by design:
    host timing is not part of a shard's deterministic identity). */
void
expectSameResult(const ShardResult& got, const ShardResult& want)
{
    EXPECT_EQ(got.index, want.index);
    EXPECT_EQ(got.key, want.key);
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.error.code, want.error.code);
    EXPECT_EQ(got.error.message, want.error.message);
    EXPECT_EQ(got.retries, want.retries);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.instrs, want.instrs);
    EXPECT_EQ(got.ipc, want.ipc);
    EXPECT_EQ(got.powerW, want.powerW);
    EXPECT_EQ(got.ipcPerW, want.ipcPerW);
    EXPECT_EQ(got.wallSeconds, 0.0);
    EXPECT_EQ(got.ipcX, want.ipcX);
    EXPECT_EQ(got.ipcY, want.ipcY);
}

} // namespace

// ---- Cache-key definition ----

TEST(CacheKey, CanonicalJsonIsStableAndSelfContained)
{
    auto spec = tinySpec();
    auto shards = expandOrDie(spec);
    const std::string a = ShardCache::canonicalKeyJson(spec, shards[0]);
    const std::string b = ShardCache::canonicalKeyJson(spec, shards[0]);
    EXPECT_EQ(a, b);
    // The canonical identity must carry content hashes, not just
    // names: a renamed-but-identical config would otherwise alias.
    EXPECT_NE(a.find("config_hash"), std::string::npos);
    EXPECT_NE(a.find("profile_hash"), std::string::npos);
    EXPECT_NE(a.find("shard_index"), std::string::npos);
}

TEST(CacheKey, ReorderedSpecJsonSameKey)
{
    // The same sweep spelled with reordered JSON keys must produce the
    // same cache keys — the canonical rendering, not the user's file
    // text, is what gets hashed.
    const char* textA = R"({
        "configs": ["power10"], "workloads": ["mcf"],
        "smt": [1, 2], "seeds": 1, "instrs": 2000, "warmup": 500,
        "seed": 11
    })";
    const char* textB = R"({
        "seed": 11, "warmup": 500, "instrs": 2000, "seeds": 1,
        "smt": [1, 2], "workloads": ["mcf"], "configs": ["power10"]
    })";
    auto specA = SweepSpec::fromJson(textA);
    auto specB = SweepSpec::fromJson(textB);
    ASSERT_TRUE(specA.ok()) << specA.error().str();
    ASSERT_TRUE(specB.ok()) << specB.error().str();
    auto shardsA = expandOrDie(specA.value());
    auto shardsB = expandOrDie(specB.value());
    ASSERT_EQ(shardsA.size(), shardsB.size());
    for (size_t i = 0; i < shardsA.size(); ++i)
        EXPECT_EQ(
            ShardCache::shardKey(specA.value(), shardsA[i]),
            ShardCache::shardKey(specB.value(), shardsB[i]))
            << "shard " << i;
}

TEST(CacheKey, SemanticFieldChangesChangeKey)
{
    auto base = tinySpec();
    auto shard = expandOrDie(base)[0];
    const uint64_t baseKey = ShardCache::shardKey(base, shard);

    auto mutated = [&](auto fn, const char* what) {
        auto spec = tinySpec();
        fn(spec);
        // Re-expand when the mutation could touch shard contents;
        // shard 0 stays the same grid position throughout.
        auto shards = expandOrDie(spec);
        EXPECT_NE(ShardCache::shardKey(spec, shards[0]), baseKey)
            << what;
    };
    mutated([](SweepSpec& s) { s.instrs = 2001; }, "instrs");
    mutated([](SweepSpec& s) { s.warmup = 501; }, "warmup");
    mutated([](SweepSpec& s) { s.seed = 12; }, "sweep seed");
    mutated([](SweepSpec& s) { s.maxCycles = 1000000; }, "maxCycles");
    mutated([](SweepSpec& s) { s.maxRetries = 3; }, "maxRetries");
    mutated([](SweepSpec& s) { s.infraFailProb = 0.5; },
            "infraFailProb");
    mutated([](SweepSpec& s) { s.sampleInterval = 256; },
            "sampleInterval");
    mutated([](SweepSpec& s) { s.configs = {"power9"}; }, "config");
    mutated([](SweepSpec& s) { s.workloads = {"xz"}; }, "workload");
    mutated([](SweepSpec& s) { s.cores = {2}; }, "cores");
}

TEST(CacheKey, DistinctShardsDistinctKeys)
{
    auto spec = tinySpec();
    spec.configs = {"power9", "power10"};
    spec.workloads = {"mcf", "xz"};
    spec.seeds = 2;
    auto shards = expandOrDie(spec);
    std::set<uint64_t> keys;
    for (const auto& shard : shards)
        keys.insert(ShardCache::shardKey(spec, shard));
    EXPECT_EQ(keys.size(), shards.size());
}

// ---- Entry round trips ----

TEST(CacheEntry, InsertLookupRoundTrip)
{
    TempCacheDir dir("cache_roundtrip");
    ShardCache cache(dir.path);
    ASSERT_TRUE(cache.prepare().ok());
    auto spec = tinySpec();
    auto shard = expandOrDie(spec)[0];
    auto want = okResult(shard);
    ASSERT_TRUE(cache.insert(spec, shard, want).ok());
    auto got = cache.lookup(spec, shard);
    ASSERT_TRUE(got.has_value());
    expectSameResult(*got, want);
}

TEST(CacheEntry, FailedShardCachedToo)
{
    TempCacheDir dir("cache_failed");
    ShardCache cache(dir.path);
    ASSERT_TRUE(cache.prepare().ok());
    auto spec = tinySpec();
    auto shard = expandOrDie(spec)[0];
    ShardResult fail;
    fail.index = shard.index;
    fail.key = shard.key();
    fail.ok = false;
    fail.error = common::Error::timeout(
        "shard exceeded cycle budget (deterministic)");
    fail.retries = 2;
    ASSERT_TRUE(cache.insert(spec, shard, fail).ok());
    auto got = cache.lookup(spec, shard);
    ASSERT_TRUE(got.has_value());
    expectSameResult(*got, fail);
}

TEST(CacheEntry, MissWhenAbsent)
{
    TempCacheDir dir("cache_absent");
    ShardCache cache(dir.path);
    ASSERT_TRUE(cache.prepare().ok());
    auto spec = tinySpec();
    auto shard = expandOrDie(spec)[0];
    EXPECT_FALSE(cache.lookup(spec, shard).has_value());
}

// ---- Hostile entries (runs under ASan/UBSan in CI) ----

namespace {

/** Insert a valid entry and return (cache, entry path, bytes). */
struct SeededCache
{
    TempCacheDir dir;
    ShardCache cache;
    SweepSpec spec;
    ShardSpec shard;
    std::string path;
    std::vector<uint8_t> bytes;

    explicit SeededCache(const std::string& stem)
        : dir("cache_" + stem), cache(dir.path), spec(tinySpec())
    {
        EXPECT_TRUE(cache.prepare().ok());
        shard = expandOrDie(spec)[0];
        EXPECT_TRUE(cache.insert(spec, shard, okResult(shard)).ok());
        path = cache.entryPath(ShardCache::shardKey(spec, shard));
        bytes = readEntry(path);
    }
};

} // namespace

TEST(CacheHostile, CorruptByteFlipIsMissNeverError)
{
    SeededCache s("corrupt");
    for (size_t pos = 0; pos < s.bytes.size();
         pos += (pos < 48 ? 1 : 37)) {
        auto mutated = s.bytes;
        mutated[pos] ^= 0xFF;
        writeEntry(s.path, mutated);
        EXPECT_FALSE(s.cache.lookup(s.spec, s.shard).has_value())
            << "flip at byte " << pos;
    }
    // Restoring the original bytes must hit again.
    writeEntry(s.path, s.bytes);
    EXPECT_TRUE(s.cache.lookup(s.spec, s.shard).has_value());
}

TEST(CacheHostile, TruncatedEntryIsMiss)
{
    SeededCache s("truncated");
    for (size_t len = 0; len < s.bytes.size();
         len += (len < 48 ? 1 : 53)) {
        writeEntry(s.path, std::vector<uint8_t>(
                               s.bytes.begin(),
                               s.bytes.begin() +
                                   static_cast<ptrdiff_t>(len)));
        EXPECT_FALSE(s.cache.lookup(s.spec, s.shard).has_value())
            << "prefix of " << len << " bytes";
    }
}

TEST(CacheHostile, TrailingGarbageIsMiss)
{
    SeededCache s("trailing");
    auto mutated = s.bytes;
    mutated.push_back(0x5A);
    writeEntry(s.path, mutated);
    EXPECT_FALSE(s.cache.lookup(s.spec, s.shard).has_value());
}

TEST(CacheHostile, StaleSchemaVersionIsMissNotCorruptLoad)
{
    // Patch the embedded state-schema version (u32 at offset 12) and
    // recompute the trailing checksum so only the version check can
    // reject it: a simulator whose serialized behaviour changed must
    // refuse entries written by the old one.
    SeededCache s("stale");
    auto mutated = s.bytes;
    ASSERT_GT(mutated.size(), 24u);
    mutated[12] = 0x7F;
    common::Fnv1a h;
    h.bytes(mutated.data(), mutated.size() - 8);
    const uint64_t sum = h.digest();
    for (int i = 0; i < 8; ++i)
        mutated[mutated.size() - 8 + static_cast<size_t>(i)] =
            static_cast<uint8_t>(sum >> (8 * i));
    writeEntry(s.path, mutated);
    EXPECT_FALSE(s.cache.lookup(s.spec, s.shard).has_value());
}

TEST(CacheHostile, StaleCacheFormatVersionIsMiss)
{
    // Same surgery on the container version (u32 at offset 8): a
    // garbage version, and v5, whose entries still carried the retired
    // fidelity-mode byte.
    for (uint32_t version : {0x7Eu, 5u}) {
        SeededCache s("staleformat");
        auto mutated = s.bytes;
        for (size_t i = 0; i < 4; ++i)
            mutated[8 + i] = static_cast<uint8_t>(version >> (8 * i));
        common::Fnv1a h;
        h.bytes(mutated.data(), mutated.size() - 8);
        const uint64_t sum = h.digest();
        for (int i = 0; i < 8; ++i)
            mutated[mutated.size() - 8 + static_cast<size_t>(i)] =
                static_cast<uint8_t>(sum >> (8 * i));
        writeEntry(s.path, mutated);
        EXPECT_FALSE(s.cache.lookup(s.spec, s.shard).has_value())
            << "format version " << version;
    }
}

TEST(CacheHostile, CollidingEntryIdentityIsMiss)
{
    // Copy shard 0's (valid) entry into shard 1's slot: the container
    // parses, the checksum passes, but the embedded key/identity names
    // the wrong shard — must be a miss, never the wrong result.
    TempCacheDir dir("cache_collide");
    ShardCache cache(dir.path);
    ASSERT_TRUE(cache.prepare().ok());
    auto spec = tinySpec();
    auto shards = expandOrDie(spec);
    ASSERT_GE(shards.size(), 2u);
    ASSERT_TRUE(cache.insert(spec, shards[0],
                             okResult(shards[0])).ok());
    const auto bytes = readEntry(
        cache.entryPath(ShardCache::shardKey(spec, shards[0])));
    writeEntry(cache.entryPath(ShardCache::shardKey(spec, shards[1])),
               bytes);
    EXPECT_FALSE(cache.lookup(spec, shards[1]).has_value());
}

TEST(CacheHostile, RandomGarbageFuzzNeverCrashes)
{
    TempCacheDir dir("cache_garbage");
    ShardCache cache(dir.path);
    ASSERT_TRUE(cache.prepare().ok());
    auto spec = tinySpec();
    auto shard = expandOrDie(spec)[0];
    const std::string path =
        cache.entryPath(ShardCache::shardKey(spec, shard));
    common::Xoshiro rng(0xDECAF);
    for (int iter = 0; iter < 200; ++iter) {
        std::vector<uint8_t> junk(rng.below(2048));
        for (auto& byte : junk)
            byte = static_cast<uint8_t>(rng.next());
        if (iter % 3 == 0 && junk.size() >= 8)
            std::memcpy(junk.data(), "P10SHRD\0", 8);
        writeEntry(path, junk);
        EXPECT_FALSE(cache.lookup(spec, shard).has_value());
    }
}

TEST(CacheDeathTest, EmptyDirectoryAsserts)
{
    EXPECT_DEATH(ShardCache(""), "directory");
}

TEST(CacheEntry, UnwritableDirPreflightError)
{
    // A cache path whose parent is a regular file cannot be created;
    // prepare() must surface that as a structured input error.
    TempCacheDir dir("cache_unwritable");
    std::filesystem::create_directories(dir.path);
    const std::string file = dir.path + "/occupied";
    writeEntry(file, {0x00});
    ShardCache cache(file + "/sub");
    auto st = cache.prepare();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, common::ErrorCode::InvalidArgument);
}

// ---- SweepRunner integration ----

TEST(CacheSweep, WarmRunSimulatesZeroShardsByteIdentical)
{
    TempCacheDir dir("cache_warm");
    auto spec = tinySpec();

    sweep::SweepRunner cold(spec);
    cold.cacheDir = dir.path;
    auto coldRes = cold.run(2);
    ASSERT_TRUE(coldRes.ok()) << coldRes.error().str();
    EXPECT_EQ(coldRes.value().cachedShards, 0u);
    EXPECT_EQ(coldRes.value().simulatedShards,
              coldRes.value().shards.size());

    sweep::SweepRunner warm(spec);
    warm.cacheDir = dir.path;
    auto warmRes = warm.run(2);
    ASSERT_TRUE(warmRes.ok()) << warmRes.error().str();
    EXPECT_EQ(warmRes.value().simulatedShards, 0u);
    EXPECT_EQ(warmRes.value().cachedShards,
              warmRes.value().shards.size());
    for (const auto& shard : warmRes.value().shards)
        EXPECT_TRUE(shard.fromCache);

    EXPECT_EQ(
        sweep::SweepRunner::merge(spec, coldRes.value(), "t").toJson(),
        sweep::SweepRunner::merge(spec, warmRes.value(), "t").toJson());
}

TEST(CacheSweep, CacheVsNoCacheByteIdentical)
{
    TempCacheDir dir("cache_vs_none");
    auto spec = tinySpec();

    sweep::SweepRunner plain(spec);
    auto plainRes = plain.run(1);
    ASSERT_TRUE(plainRes.ok()) << plainRes.error().str();

    sweep::SweepRunner cached(spec);
    cached.cacheDir = dir.path;
    auto cachedRes = cached.run(4);
    ASSERT_TRUE(cachedRes.ok()) << cachedRes.error().str();

    sweep::SweepRunner warm(spec);
    warm.cacheDir = dir.path;
    auto warmRes = warm.run(4);
    ASSERT_TRUE(warmRes.ok()) << warmRes.error().str();

    const auto merged = sweep::SweepRunner::merge(
        spec, plainRes.value(), "t").toJson();
    EXPECT_EQ(sweep::SweepRunner::merge(spec, cachedRes.value(), "t")
                  .toJson(),
              merged);
    EXPECT_EQ(sweep::SweepRunner::merge(spec, warmRes.value(), "t")
                  .toJson(),
              merged);
}

TEST(CacheSweep, RetriedShardsReplayIdentically)
{
    // Shards that consumed deterministic transient-failure retries
    // (and shards that failed outright) must replay from cache with
    // identical retry counts and error records.
    TempCacheDir dir("cache_retries");
    auto spec = tinySpec();
    spec.configs = {"power9", "power10"};
    spec.seeds = 2;
    spec.infraFailProb = 0.4;
    spec.maxRetries = 1;
    spec.seed = 23;

    sweep::SweepRunner cold(spec);
    cold.cacheDir = dir.path;
    auto coldRes = cold.run(4);
    ASSERT_TRUE(coldRes.ok()) << coldRes.error().str();
    // The point of the test is mixed outcomes; with p=0.4 over 8
    // shards both kinds exist for this seed.
    EXPECT_GT(coldRes.value().retriesTotal, 0u);

    sweep::SweepRunner warm(spec);
    warm.cacheDir = dir.path;
    auto warmRes = warm.run(4);
    ASSERT_TRUE(warmRes.ok()) << warmRes.error().str();
    EXPECT_EQ(warmRes.value().simulatedShards, 0u);
    EXPECT_EQ(warmRes.value().retriesTotal,
              coldRes.value().retriesTotal);
    EXPECT_EQ(warmRes.value().failed, coldRes.value().failed);
    EXPECT_EQ(
        sweep::SweepRunner::merge(spec, coldRes.value(), "t").toJson(),
        sweep::SweepRunner::merge(spec, warmRes.value(), "t").toJson());
}

TEST(CacheSweep, CacheWithShardReportsDirRejected)
{
    TempCacheDir dir("cache_conflict");
    auto spec = tinySpec();
    spec.shardReportsDir = dir.path + "/shards";
    sweep::SweepRunner runner(spec);
    runner.cacheDir = dir.path + "/cache";
    auto res = runner.run(1);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, common::ErrorCode::InvalidArgument);
}

TEST(CacheSweep, CacheStatsConservation)
{
    TempCacheDir dir("cache_stats");
    auto spec = tinySpec();
    sweep::SweepRunner runner(spec);
    runner.cacheDir = dir.path;
    auto res = runner.run(2);
    ASSERT_TRUE(res.ok()) << res.error().str();
    EXPECT_EQ(res.value().cachedShards + res.value().simulatedShards,
              res.value().shards.size());
    const std::string stats =
        sweep::SweepRunner::cacheStats(res.value(), "t").toJson();
    EXPECT_NE(stats.find("sweep.cached"), std::string::npos);
    EXPECT_NE(stats.find("sweep.simulated"), std::string::npos);
    EXPECT_NE(stats.find("sweep.shards"), std::string::npos);
}

// ---- Spec JSON hostile input (feeds the cache key) ----

TEST(SpecHostile, TruncationFuzzNeverCrashes)
{
    const std::string text = R"({
        "configs": ["power10"], "workloads": ["mcf"],
        "smt": [1, 2], "seeds": 2, "instrs": 2000, "warmup": 500,
        "max_cycles": 100, "max_retries": 1, "infra_fail_prob": 0.25,
        "seed": 11, "sample_interval": 64
    })";
    for (size_t len = 0; len < text.size(); ++len) {
        auto r = SweepSpec::fromJson(text.substr(0, len));
        EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes";
    }
}

TEST(SpecHostile, ByteFlipFuzzNeverCrashes)
{
    const std::string text = R"({"configs":["power10"],)"
                             R"("workloads":["mcf"],"smt":[1],)"
                             R"("seeds":1,"instrs":2000,)"
                             R"("warmup":500,"seed":11})";
    for (size_t pos = 0; pos < text.size(); ++pos) {
        for (char c : {'\0', '{', '"', '-', '9'}) {
            std::string mutated = text;
            mutated[pos] = c;
            // Either outcome is fine — some flips still parse (e.g. a
            // digit swap); the bar is no crash and no UB, including in
            // the validation and key paths a parsed spec then feeds.
            auto r = SweepSpec::fromJson(mutated);
            if (r.ok() && r.value().validate().ok()) {
                auto shards = r.value().expand();
                if (shards.ok() && !shards.value().empty())
                    (void)ShardCache::shardKey(r.value(),
                                               shards.value()[0]);
            }
        }
    }
}

TEST(SpecHostile, NaNAndHugeValuesRejected)
{
    // JSON NaN/Infinity literals are invalid JSON; numeric fields far
    // outside their domain must fail validation, not wrap or crash.
    EXPECT_FALSE(SweepSpec::fromJson(
                     R"({"configs":["power10"],"workloads":["mcf"],)"
                     R"("infra_fail_prob":NaN})")
                     .ok());
    EXPECT_FALSE(SweepSpec::fromJson(
                     R"({"configs":["power10"],"workloads":["mcf"],)"
                     R"("infra_fail_prob":Infinity})")
                     .ok());
    auto huge = SweepSpec::fromJson(
        R"({"configs":["power10"],"workloads":["mcf"],)"
        R"("infra_fail_prob":1e308})");
    if (huge.ok())
        EXPECT_FALSE(huge.value().validate().ok());
    auto negative = SweepSpec::fromJson(
        R"({"configs":["power10"],"workloads":["mcf"],)"
        R"("infra_fail_prob":-0.5})");
    if (negative.ok())
        EXPECT_FALSE(negative.value().validate().ok());
}

TEST(SpecHostile, UnknownKeysRejected)
{
    auto r = SweepSpec::fromJson(
        R"({"configs":["power10"],"workloads":["mcf"],)"
        R"("workload":["typo-must-not-shrink-sweep"]})");
    EXPECT_FALSE(r.ok());
    // The retired fidelity axis is an unknown key like any other.
    auto mode = SweepSpec::fromJson(
        R"({"configs":["power10"],"workloads":["mcf"],"mode":["full"]})");
    ASSERT_FALSE(mode.ok());
    EXPECT_NE(mode.error().message.find("'mode'"), std::string::npos)
        << mode.error().message;
}
