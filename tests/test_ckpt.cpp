/**
 * @file
 * Checkpoint subsystem tests: bit-identical resume, config binding,
 * hostile-input rejection, and the committed golden corpus.
 *
 * The load-bearing guarantee is the round trip: a model restored from
 * a checkpoint must measure a window bit-identical to the uninterrupted
 * run's — every cycle count, every activity counter. The hostile-input
 * suites (names carrying Fuzz/Corrupt/Truncat run under ASan/UBSan in
 * CI) assert the deserializer's contract: corrupt bytes produce
 * structured errors, never crashes or out-of-range reads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/config.h"
#include "core/core.h"
#include "workloads/spec_profiles.h"
#include "workloads/synthetic.h"

using namespace p10ee;

namespace {

core::CoreConfig
configByName(const std::string& name)
{
    return name == "power9" ? core::power9() : core::power10();
}

/** Thread sources + raw pointer views for one (profile, smt) run. */
struct Bundle
{
    std::vector<std::unique_ptr<workloads::SyntheticWorkload>> own;
    std::vector<workloads::InstrSource*> threads;
    std::vector<workloads::CheckpointableSource*> walkers;
};

Bundle
makeSources(const workloads::WorkloadProfile& profile, int smt)
{
    Bundle b;
    for (int t = 0; t < smt; ++t) {
        b.own.push_back(
            std::make_unique<workloads::SyntheticWorkload>(profile, t));
        b.threads.push_back(b.own.back().get());
        b.walkers.push_back(b.own.back().get());
    }
    return b;
}

workloads::WorkloadProfile
profileByName(const std::string& name)
{
    const workloads::WorkloadProfile* p = workloads::findProfile(name);
    EXPECT_NE(p, nullptr) << name;
    return *p;
}

/** Canonical text rendering of a run: every number that must match
    bit-for-bit across a checkpoint round trip. */
std::string
runFingerprint(const core::RunResult& run)
{
    std::ostringstream os;
    os << "cycles=" << run.cycles << "\ninstrs=" << run.instrs
       << "\nops=" << run.ops << "\nflops=" << run.flops << "\n";
    for (const auto& [name, value] : run.stats)
        os << name << "=" << value << "\n";
    return os.str();
}

constexpr uint64_t kWarmupPerThread = 2000;
constexpr uint64_t kMeasure = 3000;

/** Warm up, checkpoint, and finish the run; returns (bytes, print). */
std::pair<std::vector<uint8_t>, std::string>
captureAndFinish(const std::string& configName, int smt)
{
    auto cfg = configByName(configName);
    auto profile = profileByName("xz");
    Bundle b = makeSources(profile, smt);
    core::CoreModel model(cfg);
    model.beginRun(b.threads);
    model.advance(kWarmupPerThread * static_cast<uint64_t>(smt));

    ckpt::CheckpointMeta meta;
    meta.configName = configName;
    meta.workload = profile.name;
    meta.warmupInstrs = kWarmupPerThread * static_cast<uint64_t>(smt);
    meta.seed = profile.seed;
    auto ck = ckpt::Checkpoint::capture(model, b.walkers, meta);

    core::RunOptions opts;
    opts.measureInstrs = kMeasure;
    auto run = model.measure(opts);
    return {ck.toBytes(), runFingerprint(run)};
}

/** Restore from bytes into a fresh machine and measure. */
std::string
restoreAndMeasure(const std::string& configName, int smt,
                  const std::vector<uint8_t>& bytes)
{
    auto ckOr = ckpt::Checkpoint::fromBytes(bytes);
    EXPECT_TRUE(ckOr.ok()) << ckOr.error().str();
    auto cfg = configByName(configName);
    Bundle b = makeSources(profileByName("xz"), smt);
    core::CoreModel model(cfg);
    model.beginRun(b.threads);
    auto st = ckOr.value().restore(model, b.walkers);
    EXPECT_TRUE(st.ok()) << st.error().str();
    core::RunOptions opts;
    opts.measureInstrs = kMeasure;
    return runFingerprint(model.measure(opts));
}

void
expectRoundTrip(const std::string& configName, int smt)
{
    auto [bytes, cold] = captureAndFinish(configName, smt);
    EXPECT_EQ(restoreAndMeasure(configName, smt, bytes), cold);
}

} // namespace

// ---- Config hashing ----

TEST(ConfigHash, StableAcrossCalls)
{
    EXPECT_EQ(ckpt::configHash(core::power10()),
              ckpt::configHash(core::power10()));
    EXPECT_EQ(ckpt::configHash(core::power9()),
              ckpt::configHash(core::power9()));
}

TEST(ConfigHash, DiffersBetweenMachines)
{
    EXPECT_NE(ckpt::configHash(core::power9()),
              ckpt::configHash(core::power10()));
    for (int g = 0;
         g < static_cast<int>(core::AblationGroup::NumGroups); ++g)
        EXPECT_NE(ckpt::configHash(core::power10Without(
                      static_cast<core::AblationGroup>(g))),
                  ckpt::configHash(core::power10()))
            << core::ablationGroupName(
                   static_cast<core::AblationGroup>(g));
}

TEST(ConfigHash, SensitiveToIndividualFields)
{
    const uint64_t base = ckpt::configHash(core::power10());
    auto mutate = [&](auto fn, const char* what) {
        auto cfg = core::power10();
        fn(cfg);
        EXPECT_NE(ckpt::configHash(cfg), base) << what;
    };
    mutate([](core::CoreConfig& c) { c.name += "x"; }, "name");
    mutate([](core::CoreConfig& c) { ++c.fetchWidth; }, "fetchWidth");
    mutate([](core::CoreConfig& c) { ++c.robSize; }, "robSize");
    mutate([](core::CoreConfig& c) { c.l2.sizeBytes *= 2; },
           "l2.sizeBytes");
    mutate([](core::CoreConfig& c) { ++c.bp.gshareBits; },
           "bp.gshareBits");
    mutate([](core::CoreConfig& c) { c.bp.indirectPathHist ^= true; },
           "bp.indirectPathHist");
    mutate([](core::CoreConfig& c) { c.clockGateQuality += 0.01; },
           "clockGateQuality");
    mutate([](core::CoreConfig& c) { c.storeMerge ^= true; },
           "storeMerge");
    mutate([](core::CoreConfig& c) { ++c.memLatency; }, "memLatency");
    mutate([](core::CoreConfig& c) { ++c.mmaUnits; }, "mmaUnits");
}

// ---- Round trips ----

TEST(CkptRoundTrip, Power9Smt1BitIdentical) { expectRoundTrip("power9", 1); }
TEST(CkptRoundTrip, Power9Smt4BitIdentical) { expectRoundTrip("power9", 4); }
TEST(CkptRoundTrip, Power10Smt1BitIdentical) { expectRoundTrip("power10", 1); }
TEST(CkptRoundTrip, Power10Smt4BitIdentical) { expectRoundTrip("power10", 4); }

TEST(CkptRoundTrip, CaptureIsDeterministic)
{
    auto profile = profileByName("mcf");
    Bundle b = makeSources(profile, 2);
    core::CoreModel model(core::power10());
    model.beginRun(b.threads);
    model.advance(4000);
    ckpt::CheckpointMeta meta;
    meta.workload = profile.name;
    auto a = ckpt::Checkpoint::capture(model, b.walkers, meta);
    auto c = ckpt::Checkpoint::capture(model, b.walkers, meta);
    EXPECT_EQ(a.toBytes(), c.toBytes());
}

TEST(CkptRoundTrip, ZeroWarmupCaptureMatchesFreshRun)
{
    auto profile = profileByName("gcc");
    core::RunOptions opts;
    opts.measureInstrs = kMeasure;

    // Uninterrupted zero-warmup run.
    Bundle cold = makeSources(profile, 1);
    core::CoreModel coldModel(core::power10());
    coldModel.beginRun(cold.threads);
    const std::string expect = runFingerprint(coldModel.measure(opts));

    // Capture immediately after beginRun, restore, measure.
    Bundle warm = makeSources(profile, 1);
    core::CoreModel warmModel(core::power10());
    warmModel.beginRun(warm.threads);
    auto ck = ckpt::Checkpoint::capture(warmModel, warm.walkers, {});

    Bundle fresh = makeSources(profile, 1);
    core::CoreModel freshModel(core::power10());
    freshModel.beginRun(fresh.threads);
    auto st = ck.restore(freshModel, fresh.walkers);
    ASSERT_TRUE(st.ok()) << st.error().str();
    EXPECT_EQ(runFingerprint(freshModel.measure(opts)), expect);
}

TEST(CkptRoundTrip, FileSaveLoadPreservesEverything)
{
    auto profile = profileByName("xz");
    Bundle b = makeSources(profile, 1);
    core::CoreModel model(core::power10());
    model.beginRun(b.threads);
    model.advance(2000);
    ckpt::CheckpointMeta meta;
    meta.configName = "power10";
    meta.workload = profile.name;
    meta.warmupInstrs = 2000;
    meta.seed = profile.seed;
    auto ck = ckpt::Checkpoint::capture(model, b.walkers, meta);

    const std::string path =
        (std::filesystem::temp_directory_path() / "p10ee_test.ckpt")
            .string();
    auto st = ck.save(path);
    ASSERT_TRUE(st.ok()) << st.error().str();
    auto loaded = ckpt::Checkpoint::load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().str();
    EXPECT_EQ(loaded.value().toBytes(), ck.toBytes());
    EXPECT_EQ(loaded.value().meta().configName, "power10");
    EXPECT_EQ(loaded.value().meta().workload, "xz");
    EXPECT_EQ(loaded.value().meta().numThreads, 1u);
    EXPECT_EQ(loaded.value().meta().warmupInstrs, 2000u);
    EXPECT_EQ(loaded.value().capturedConfigHash(),
              ckpt::configHash(core::power10()));
    std::filesystem::remove(path);
}

TEST(CkptRoundTrip, LoadMissingFileIsNotFound)
{
    auto r = ckpt::Checkpoint::load("/nonexistent/p10ee.ckpt");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, common::ErrorCode::NotFound);
}

// ---- Restore validation ----

TEST(CkptRestore, ConfigMismatchRejected)
{
    auto [bytes, print] = captureAndFinish("power10", 1);
    (void)print;
    auto ckOr = ckpt::Checkpoint::fromBytes(bytes);
    ASSERT_TRUE(ckOr.ok());
    Bundle b = makeSources(profileByName("xz"), 1);
    core::CoreModel model(core::power9());
    model.beginRun(b.threads);
    auto st = ckOr.value().restore(model, b.walkers);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, common::ErrorCode::InvalidConfig);
}

TEST(CkptRestore, ThreadCountMismatchRejected)
{
    auto [bytes, print] = captureAndFinish("power10", 2);
    (void)print;
    auto ckOr = ckpt::Checkpoint::fromBytes(bytes);
    ASSERT_TRUE(ckOr.ok());
    Bundle b = makeSources(profileByName("xz"), 1);
    core::CoreModel model(core::power10());
    model.beginRun(b.threads);
    auto st = ckOr.value().restore(model, b.walkers);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, common::ErrorCode::InvalidArgument);
}

// ---- Hostile input (runs under ASan/UBSan in CI) ----

TEST(CkptHostile, TruncationFuzzEveryPrefixRejected)
{
    auto [bytes, print] = captureAndFinish("power10", 1);
    (void)print;
    // Every proper prefix must be rejected with a structured error.
    for (size_t len = 0; len < bytes.size();
         len += (len < 64 ? 1 : 97)) {
        auto r = ckpt::Checkpoint::fromBytes(bytes.data(), len);
        EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes";
        if (!r.ok()) {
            EXPECT_EQ(r.error().code,
                      common::ErrorCode::InvalidArgument);
        }
    }
}

TEST(CkptHostile, CorruptSingleByteFlipAlwaysRejected)
{
    auto [bytes, print] = captureAndFinish("power9", 1);
    (void)print;
    // The trailing checksum covers every preceding byte, so any
    // single-byte corruption anywhere in the file must be caught.
    for (size_t pos = 0; pos < bytes.size();
         pos += (pos < 64 ? 1 : 131)) {
        auto copy = bytes;
        copy[pos] ^= 0xFF;
        auto r = ckpt::Checkpoint::fromBytes(copy);
        EXPECT_FALSE(r.ok()) << "flip at byte " << pos;
    }
}

TEST(CkptHostile, CorruptMagicRejected)
{
    auto [bytes, print] = captureAndFinish("power10", 1);
    (void)print;
    bytes[0] = 'X';
    auto r = ckpt::Checkpoint::fromBytes(bytes);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("magic"), std::string::npos);
}

TEST(CkptHostile, WrongFormatVersionRejected)
{
    auto [bytes, print] = captureAndFinish("power10", 1);
    (void)print;
    bytes[8] = 99; // u32 format version little-endian low byte
    auto r = ckpt::Checkpoint::fromBytes(bytes);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("format version"),
              std::string::npos);
}

TEST(CkptHostile, StaleSchemaVersionRejected)
{
    auto [bytes, print] = captureAndFinish("power10", 1);
    (void)print;
    bytes[12] = 99; // u32 state-schema version little-endian low byte
    auto r = ckpt::Checkpoint::fromBytes(bytes);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("schema version"),
              std::string::npos);
}

TEST(CkptHostile, TrailingGarbageRejected)
{
    auto [bytes, print] = captureAndFinish("power10", 1);
    (void)print;
    bytes.push_back(0xAB);
    EXPECT_FALSE(ckpt::Checkpoint::fromBytes(bytes).ok());
}

TEST(CkptHostile, RandomGarbageFuzzNeverCrashes)
{
    common::Xoshiro rng(0xC0FFEE);
    for (int iter = 0; iter < 200; ++iter) {
        std::vector<uint8_t> junk(rng.below(4096));
        for (auto& byte : junk)
            byte = static_cast<uint8_t>(rng.next());
        // Keep the magic sometimes so parsing reaches deeper layers.
        if (iter % 3 == 0 && junk.size() >= 8)
            std::memcpy(junk.data(), "P10CKPT\0", 8);
        auto r = ckpt::Checkpoint::fromBytes(junk);
        EXPECT_FALSE(r.ok());
    }
}

namespace {

/** Core state of a power10 xz model right after beginRun. */
std::vector<uint8_t>
zeroWarmupCoreState(int smt)
{
    Bundle b = makeSources(profileByName("xz"), smt);
    core::CoreModel model(core::power10());
    model.beginRun(b.threads);
    common::BinWriter w;
    model.saveState(w);
    return w.takeBytes();
}

} // namespace

TEST(CkptHostile, ForgedCycleBeyondRangeRejected)
{
    // A zero-warmup core state ends with one block per SMT thread, all
    // alike, so the SMT2 state is the SMT1 state plus one more block:
    // the size difference locates the SMT1 block, whose first u64 is
    // the thread's nextFetch cycle.
    const std::vector<uint8_t> one = zeroWarmupCoreState(1);
    const std::vector<uint8_t> two = zeroWarmupCoreState(2);
    ASSERT_GT(two.size(), one.size());
    const size_t block = two.size() - one.size();
    ASSERT_TRUE(std::equal(one.end() - static_cast<ptrdiff_t>(block),
                           one.end(),
                           two.end() - static_cast<ptrdiff_t>(block)));

    Bundle b = makeSources(profileByName("xz"), 1);
    core::CoreModel model(core::power10());
    model.beginRun(b.threads);
    ckpt::CheckpointMeta meta;
    meta.configName = "power10";
    std::vector<uint8_t> bytes =
        ckpt::Checkpoint::capture(model, b.walkers, meta).toBytes();
    auto state = std::search(bytes.begin(), bytes.end(), one.begin(),
                             one.end());
    ASSERT_NE(state, bytes.end());
    const size_t nextFetch = static_cast<size_t>(state - bytes.begin()) +
                             one.size() - block;

    // Patch nextFetch to 2^41 and re-seal with a valid checksum.
    common::BinWriter cycle;
    cycle.u64(1ull << 41);
    std::copy(cycle.bytes().begin(), cycle.bytes().end(),
              bytes.begin() + static_cast<ptrdiff_t>(nextFetch));
    bytes.resize(bytes.size() - 8);
    common::Fnv1a h;
    h.bytes(bytes.data(), bytes.size());
    common::BinWriter sum;
    sum.u64(h.digest());
    bytes.insert(bytes.end(), sum.bytes().begin(), sum.bytes().end());

    auto ckOr = ckpt::Checkpoint::fromBytes(bytes);
    ASSERT_TRUE(ckOr.ok()) << ckOr.error().str();
    Bundle fb = makeSources(profileByName("xz"), 1);
    core::CoreModel fresh(core::power10());
    fresh.beginRun(fb.threads);
    auto st = ckOr.value().restore(fresh, fb.walkers);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, common::ErrorCode::InvalidArgument);
    EXPECT_NE(st.error().message.find("cycle range"), std::string::npos)
        << st.error().message;
}

TEST(CkptHostile, EmptyBufferTruncatedRejected)
{
    auto r = ckpt::Checkpoint::fromBytes(nullptr, 0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, common::ErrorCode::InvalidArgument);
}

// ---- Split-phase API invariants ----

TEST(CkptApiDeathTest, AdvanceWithoutBeginRunDies)
{
    core::CoreModel model(core::power10());
    EXPECT_DEATH(model.advance(1), "advance before beginRun");
}

// ---- Golden corpus ----
//
// Committed checkpoints plus the expected fingerprints of the measured
// window that follows them. Any change to the serialized format, the
// simulator's behaviour, or the restore path that is not accompanied by
// a deliberate schema bump + corpus regeneration fails here.
// Regenerate with: P10EE_REGEN_GOLDEN=1 ./test_ckpt
//     --gtest_filter='*Golden*'

namespace {

struct GoldenCase
{
    const char* config;
    int smt;
    const char* stem;
};

constexpr GoldenCase kGolden[] = {
    {"power9", 1, "p9_smt1"},
    {"power9", 4, "p9_smt4"},
    {"power10", 1, "p10_smt1"},
    {"power10", 4, "p10_smt4"},
};

std::string
goldenDir()
{
    return P10EE_GOLDEN_DIR;
}

std::string
readFile(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good()) << path;
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

} // namespace

TEST(CkptGolden, CorpusRoundTripsBitIdentical)
{
    const bool regen = std::getenv("P10EE_REGEN_GOLDEN") != nullptr;
    for (const GoldenCase& g : kGolden) {
        const std::string ckptPath =
            goldenDir() + "/" + g.stem + ".ckpt";
        const std::string statsPath =
            goldenDir() + "/" + g.stem + ".stats.txt";
        if (regen) {
            auto [bytes, print] = captureAndFinish(g.config, g.smt);
            std::ofstream cf(ckptPath, std::ios::binary);
            cf.write(reinterpret_cast<const char*>(bytes.data()),
                     static_cast<std::streamsize>(bytes.size()));
            std::ofstream sf(statsPath, std::ios::binary);
            sf << print;
            continue;
        }
        const std::string raw = readFile(ckptPath);
        std::vector<uint8_t> bytes(raw.begin(), raw.end());
        ASSERT_FALSE(bytes.empty()) << ckptPath;
        EXPECT_EQ(restoreAndMeasure(g.config, g.smt, bytes),
                  readFile(statsPath))
            << g.stem;
        // A restore cannot see a change in how saveState orders or
        // encodes state; a fresh capture must reproduce the file.
        EXPECT_TRUE(captureAndFinish(g.config, g.smt).first == bytes)
            << g.stem << ": a fresh capture differs from " << ckptPath;
    }
}

TEST(CkptGolden, CorpusMetaMatchesCases)
{
    if (std::getenv("P10EE_REGEN_GOLDEN") != nullptr)
        GTEST_SKIP() << "regenerating";
    for (const GoldenCase& g : kGolden) {
        const std::string raw =
            readFile(goldenDir() + "/" + g.stem + ".ckpt");
        std::vector<uint8_t> bytes(raw.begin(), raw.end());
        auto ckOr = ckpt::Checkpoint::fromBytes(bytes);
        ASSERT_TRUE(ckOr.ok()) << g.stem << ": "
                               << ckOr.error().str();
        EXPECT_EQ(ckOr.value().meta().configName, g.config);
        EXPECT_EQ(ckOr.value().meta().workload, "xz");
        EXPECT_EQ(ckOr.value().meta().numThreads,
                  static_cast<uint32_t>(g.smt));
        EXPECT_EQ(ckOr.value().capturedConfigHash(),
                  ckpt::configHash(configByName(g.config)));
    }
}
