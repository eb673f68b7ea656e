/**
 * @file
 * Chip-model differential suite (ISSUE: multi-core chip model).
 *
 * The load-bearing contracts pinned here:
 *  - a 1-core chip IS the bare core: measured window, telemetry and
 *    checkpoint bytes all identical to CoreModel's, and a sweep spec
 *    with an explicit "cores":[1] merges byte-identically to one
 *    without the axis;
 *  - N-core runs are deterministic: same result for any coreJobs /
 *    --jobs value, cold or warm cache, library or spawned-p10d fleet;
 *  - the contention layer's three invariants (conservation,
 *    monotonicity, starvation-freedom) hold over randomized demand
 *    vectors with logged seeds;
 *  - chip checkpoints restore to bit-identical measurements, and every
 *    hostile input (truncation, byte flips, wrong core count, mixed
 *    config hashes, corrupt payloads) fails structurally, never
 *    crashes (Fuzz/Corrupt/Truncat names run under ASan/UBSan in CI).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/service.h"
#include "chip/chip.h"
#include "chip/contention.h"
#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/config.h"
#include "core/core.h"
#include "obs/timeseries.h"
#include "sweep/spec.h"
#include "trace/replay.h"
#include "workloads/registry.h"

#ifdef P10EE_P10D_BIN
#include <csignal>

#include "fabric/fleet.h"
#include "fabric/spawn.h"
#endif

using namespace p10ee;

namespace {

core::CoreConfig
configByName(const std::string& name)
{
    return name == "power9" ? core::power9() : core::power10();
}

std::string
goldenDir()
{
    return P10EE_GOLDEN_DIR;
}

workloads::WorkloadProfile
resolveProfile(const std::string& name)
{
    trace::registerTraceFrontend();
    auto profOr = workloads::resolveWorkload(name);
    EXPECT_TRUE(profOr.ok())
        << name << ": " << (profOr.ok() ? "" : profOr.error().str());
    return profOr.value();
}

chip::ChipConfig
homogeneousChip(const core::CoreConfig& cfg, int cores)
{
    chip::ChipConfig c;
    c.cores.assign(static_cast<size_t>(cores), cfg);
    return c;
}

/** Canonical text rendering of a core window: every number that must
    match bit-for-bit (doubles rendered as hexfloat). */
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

std::string
chipFingerprint(const chip::ChipResult& r)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << "epochs=" << r.epochs << "\nchipCycles=" << r.chipCycles
       << "\ninstrs=" << r.instrs << "\nipc=" << r.ipc
       << "\npowerW=" << r.powerW << "\nfreqGhz=" << r.freqGhz
       << "\nboost=" << r.boost
       << "\nthrottled=" << r.throttledEpochs
       << "\ndroops=" << r.droopTrips
       << "\ntimedOut=" << r.timedOut << "\n";
    for (size_t i = 0; i < r.cores.size(); ++i) {
        const chip::ChipCoreOutcome& co = r.cores[i];
        os << "--- core " << i << " ---\n"
           << "stall=" << co.stallCycles << "\neff=" << co.effCycles
           << "\nipc=" << co.ipc << "\npowerW=" << co.powerW
           << "\nfreq=" << co.freqGhz << "\nfmax=" << co.fMaxGhz
           << "\n"
           << runFingerprint(co.run);
    }
    return os.str();
}

/** Every track of a recorder, rendered for equality comparison. */
std::string
recorderFingerprint(const obs::TimeSeriesRecorder& rec)
{
    std::ostringstream os;
    os << std::hexfloat;
    for (const auto& track : rec.counters()) {
        os << track.name << " [" << track.unit << "]\n";
        for (size_t i = 0; i < track.cycle.size(); ++i)
            os << track.cycle[i] << "=" << track.value[i] << "\n";
    }
    for (const auto& track : rec.sliceTracks()) {
        os << track.name << " (slices)\n";
        for (const auto& s : track.slices)
            os << s.label << ":" << s.begin << "-" << s.end << "\n";
    }
    return os.str();
}

std::string
freshDir(const std::string& stem)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / stem).string();
    std::filesystem::remove_all(dir);
    return dir;
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

constexpr uint64_t kWarmupPerThread = 2000;
constexpr uint64_t kMeasure = 3000;

/** The bare-core reference window: split-phase, exactly what a 1-core
    chip must reproduce. */
chip::ChipResult
chipMeasure(const core::CoreConfig& cfg, workloads::ChipSources& b,
            int cores, int smt, int coreJobs = 1,
            obs::TimeSeriesRecorder* rec = nullptr)
{
    chip::ChipModel model(homogeneousChip(cfg, cores));
    model.beginRun(b.threads);
    model.advance(kWarmupPerThread * static_cast<uint64_t>(smt));
    chip::ChipRunOptions opts;
    opts.measureInstrs = kMeasure;
    opts.coreJobs = coreJobs;
    opts.recorder = rec;
    return model.measure(opts);
}

} // namespace

// ---- 1-core chip == bare core (the differential contract) ----

TEST(ChipDifferential, OneCoreMatchesBareCoreAcrossConfigsAndWorkloads)
{
    const std::string traceWorkload =
        "trace:" + goldenDir() + "/trace_isa30.p10trace";
    for (const char* configName : {"power9", "power10"}) {
        for (int smt : {1, 4}) {
            for (const std::string& workload :
                 {std::string("xz"), std::string("mcf"),
                  traceWorkload}) {
                SCOPED_TRACE(std::string(configName) + " smt" +
                             std::to_string(smt) + " " + workload);
                const core::CoreConfig cfg = configByName(configName);
                const workloads::WorkloadProfile profile =
                    resolveProfile(workload);

                auto bare = workloads::makeChipSources(profile, 1, smt).value();
                core::CoreModel model(cfg);
                model.beginRun(bare.threads[0]);
                model.advance(kWarmupPerThread *
                              static_cast<uint64_t>(smt));
                core::RunOptions opts;
                opts.measureInstrs = kMeasure;
                const std::string expect =
                    runFingerprint(model.measure(opts));

                auto b = workloads::makeChipSources(profile, 1, smt).value();
                const chip::ChipResult chip =
                    chipMeasure(cfg, b, 1, smt);
                EXPECT_EQ(runFingerprint(chip.cores[0].run), expect);
                EXPECT_EQ(chip.instrs, chip.cores[0].run.instrs);
                EXPECT_EQ(chip.cores[0].stallCycles, 0u);
                EXPECT_EQ(chip.chipCycles, chip.cores[0].run.cycles);
            }
        }
    }
}

TEST(ChipDifferential, OneCoreTelemetryMatchesBareCore)
{
    const core::CoreConfig cfg = core::power10();
    const workloads::WorkloadProfile profile = resolveProfile("xz");

    obs::TimeSeriesRecorder bareRec(256);
    auto bare = workloads::makeChipSources(profile, 1, 2).value();
    core::CoreModel model(cfg);
    model.beginRun(bare.threads[0]);
    model.advance(kWarmupPerThread * 2);
    core::RunOptions opts;
    opts.measureInstrs = kMeasure;
    opts.recorder = &bareRec;
    (void)model.measure(opts);

    obs::TimeSeriesRecorder chipRec(256);
    auto b = workloads::makeChipSources(profile, 1, 2).value();
    (void)chipMeasure(cfg, b, 1, 2, 1, &chipRec);
    EXPECT_EQ(recorderFingerprint(chipRec),
              recorderFingerprint(bareRec));
}

TEST(ChipDifferential, OneCoreCheckpointBytesMatchBareCore)
{
    const core::CoreConfig cfg = core::power10();
    const workloads::WorkloadProfile profile = resolveProfile("xz");

    auto bare = workloads::makeChipSources(profile, 1, 2).value();
    core::CoreModel model(cfg);
    model.beginRun(bare.threads[0]);
    model.advance(kWarmupPerThread * 2);
    ckpt::CheckpointMeta meta;
    meta.configName = cfg.name;
    meta.workload = profile.name;
    meta.warmupInstrs = kWarmupPerThread * 2;
    meta.seed = profile.seed;
    const std::vector<uint8_t> bareBytes =
        ckpt::Checkpoint::capture(model, bare.walkers[0], meta)
            .toBytes();

    auto b = workloads::makeChipSources(profile, 1, 2).value();
    chip::ChipModel chip(homogeneousChip(cfg, 1));
    chip.beginRun(b.threads);
    chip.advance(kWarmupPerThread * 2);
    const std::vector<uint8_t> chipBytes =
        chip::captureChipCheckpoint(chip, b.walkers, meta).toBytes();
    EXPECT_EQ(chipBytes, bareBytes);
}

TEST(ChipDifferential, ExplicitOneCoreAxisKeepsSweepReportBytes)
{
    const char* base =
        "{\"configs\":[\"power10\"],\"workloads\":[\"xz\"],"
        "\"smt\":[1,2],\"seeds\":1,\"instrs\":2000,\"warmup\":500}";
    const char* explicitOne =
        "{\"configs\":[\"power10\"],\"workloads\":[\"xz\"],"
        "\"smt\":[1,2],\"cores\":[1],\"seeds\":1,\"instrs\":2000,"
        "\"warmup\":500}";
    auto specA = sweep::SweepSpec::fromJson(base);
    auto specB = sweep::SweepSpec::fromJson(explicitOne);
    ASSERT_TRUE(specA.ok() && specB.ok());

    // 1-core shard keys carry no "/cN" suffix — the historical cache
    // and fleet identities survive the new axis.
    auto shards = specB.value().expand();
    ASSERT_TRUE(shards.ok());
    for (const auto& s : shards.value())
        EXPECT_EQ(s.key().find("/c"), std::string::npos) << s.key();

    api::Service service;
    api::SweepOptions opts;
    opts.jobs = 2;
    auto a = service.runSweep(specA.value(), opts);
    auto b = service.runSweep(specB.value(), opts);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(
        api::Service::mergedReport(specA.value(), a.value()).toJson(),
        api::Service::mergedReport(specB.value(), b.value()).toJson());
}

// ---- N-core determinism ----

TEST(ChipDeterminism, CoreJobsDoesNotChangeResultsOrTelemetry)
{
    const core::CoreConfig cfg = core::power10();
    const workloads::WorkloadProfile profile = resolveProfile("xz");

    obs::TimeSeriesRecorder recSerial(256);
    auto a = workloads::makeChipSources(profile, 4, 2).value();
    const std::string serial = chipFingerprint(
        chipMeasure(cfg, a, 4, 2, 1, &recSerial));

    for (int jobs : {2, 4, 7}) {
        SCOPED_TRACE("coreJobs=" + std::to_string(jobs));
        obs::TimeSeriesRecorder rec(256);
        auto b = workloads::makeChipSources(profile, 4, 2).value();
        EXPECT_EQ(chipFingerprint(chipMeasure(cfg, b, 4, 2, jobs, &rec)),
                  serial);
        EXPECT_EQ(recorderFingerprint(rec),
                  recorderFingerprint(recSerial));
    }
}

namespace {

const char* kChipSpecJson =
    "{\"configs\":[\"power10\"],\"workloads\":[\"xz\",\"mcf\"],"
    "\"smt\":[1],\"cores\":[1,4],\"seeds\":1,\"instrs\":2000,"
    "\"warmup\":500}";

sweep::SweepSpec
chipSpec()
{
    auto specOr = sweep::SweepSpec::fromJson(kChipSpecJson);
    EXPECT_TRUE(specOr.ok());
    return specOr.value();
}

std::string
chipSweepReport(const std::string& cacheDir, int jobs,
                uint64_t* simulated = nullptr)
{
    api::Service::Options so;
    so.cacheDir = cacheDir;
    api::Service service(so);
    api::SweepOptions opts;
    opts.jobs = jobs;
    auto result = service.runSweep(chipSpec(), opts);
    EXPECT_TRUE(result.ok())
        << (result.ok() ? "" : result.error().str());
    if (simulated)
        *simulated = result.value().simulatedShards;
    return api::Service::mergedReport(chipSpec(), result.value())
        .toJson();
}

} // namespace

TEST(ChipDeterminism, SweepJobsColdWarmByteIdentical)
{
    const std::string dir = freshDir("p10ee_chip_sweep_cache");
    uint64_t simulated = 0;
    const std::string cold = chipSweepReport(dir, 1, &simulated);
    EXPECT_EQ(simulated, 4u);

    const std::string warm = chipSweepReport(dir, 4, &simulated);
    EXPECT_EQ(simulated, 0u); // every shard replayed from the cache
    EXPECT_EQ(warm, cold);

    // A cold run at a different job count in a fresh cache, too.
    const std::string dir2 = freshDir("p10ee_chip_sweep_cache2");
    EXPECT_EQ(chipSweepReport(dir2, 4), cold);

    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir2);
}

TEST(ChipDeterminism, MergedReportCarriesChipTables)
{
    api::Service service;
    auto result = service.runSweep(chipSpec(), {});
    ASSERT_TRUE(result.ok());
    const std::string report =
        api::Service::mergedReport(chipSpec(), result.value())
            .toJson();
    EXPECT_NE(report.find("chip shards"), std::string::npos);
    EXPECT_NE(report.find("chip cores"), std::string::npos);
    EXPECT_NE(report.find("chip.shards"), std::string::npos);
}

#ifdef P10EE_P10D_BIN
TEST(ChipDeterminism, SpawnedFleetMatchesLibraryBytes)
{
    const std::string expected = chipSweepReport("", 2);

    std::vector<fabric::SpawnedWorker> fleet;
    for (int i = 0; i < 2; ++i) {
        auto workerOr = fabric::spawnWorker(P10EE_P10D_BIN);
        ASSERT_TRUE(workerOr.ok())
            << (workerOr.ok() ? "" : workerOr.error().str());
        fleet.push_back(workerOr.value());
    }
    fabric::FleetOptions opts;
    for (const fabric::SpawnedWorker& w : fleet)
        opts.workers.push_back({"127.0.0.1", w.port});
    opts.localJobs = 2;
    fabric::FleetRunner runner(chipSpec(), std::move(opts));
    auto resultOr = runner.run();
    ASSERT_TRUE(resultOr.ok())
        << (resultOr.ok() ? "" : resultOr.error().str());
    EXPECT_EQ(
        api::Service::mergedReport(chipSpec(), resultOr.value())
            .toJson(),
        expected);

    for (fabric::SpawnedWorker& w : fleet) {
        fabric::signalWorker(w, SIGTERM);
        fabric::reapWorker(w);
    }
}
#endif

// ---- Contention-layer properties (randomized, seeds logged) ----

namespace {

constexpr uint64_t kPropMasterSeed = 0x10EEC0DE;
constexpr int kPropIters = 120;

std::vector<uint64_t>
randomDemand(common::Xoshiro& rng, size_t n, uint64_t lo, uint64_t hi)
{
    std::vector<uint64_t> d(n);
    for (auto& v : d)
        v = lo + rng.below(hi - lo + 1);
    return d;
}

} // namespace

TEST(ContentionProps, GrantsConserveRespectDemandAndNeverStarve)
{
    for (int iter = 0; iter < kPropIters; ++iter) {
        const uint64_t seed =
            common::splitSeed(kPropMasterSeed, 1000 + iter);
        SCOPED_TRACE("seed=" + std::to_string(seed));
        common::Xoshiro rng(seed);
        const size_t n = 2 + rng.below(7);
        const auto demand = randomDemand(rng, n, 0, 5000);
        const uint64_t budget = rng.below(8000);
        const auto grant = chip::maxMinFairGrants(demand, budget);
        ASSERT_EQ(grant.size(), n);

        uint64_t total = 0;
        for (size_t i = 0; i < n; ++i) {
            EXPECT_LE(grant[i], demand[i]) << "core " << i;
            total += grant[i];
        }
        EXPECT_LE(total, budget); // conservation

        // Starvation-freedom: a budget of >= one line per core grants
        // every demanding core at least one line.
        if (budget >= n) {
            for (size_t i = 0; i < n; ++i) {
                if (demand[i] > 0) {
                    EXPECT_GE(grant[i], 1u) << "core " << i;
                }
            }
        }
    }
}

TEST(ContentionProps, GrantsMonotoneInCoRunnerDemand)
{
    for (int iter = 0; iter < kPropIters; ++iter) {
        const uint64_t seed =
            common::splitSeed(kPropMasterSeed, 2000 + iter);
        SCOPED_TRACE("seed=" + std::to_string(seed));
        common::Xoshiro rng(seed);
        const size_t n = 2 + rng.below(7);
        auto demand = randomDemand(rng, n, 0, 5000);
        const uint64_t budget = rng.below(8000);
        const auto before = chip::maxMinFairGrants(demand, budget);

        const size_t bumped = rng.below(n);
        demand[bumped] += 1 + rng.below(5000);
        const auto after = chip::maxMinFairGrants(demand, budget);
        for (size_t i = 0; i < n; ++i) {
            if (i == bumped)
                continue;
            EXPECT_LE(after[i], before[i])
                << "raising core " << bumped
                << "'s demand raised core " << i << "'s grant";
        }
    }
}

TEST(ContentionProps, StallMonotoneAndZeroDemandUnstalled)
{
    for (int iter = 0; iter < kPropIters; ++iter) {
        const uint64_t seed =
            common::splitSeed(kPropMasterSeed, 3000 + iter);
        SCOPED_TRACE("seed=" + std::to_string(seed));
        common::Xoshiro rng(seed);
        const size_t n = 2 + rng.below(7);
        chip::ContentionParams params;
        params.memLinesPer16Cycles = n + rng.below(64);
        params.memStallPerLine = 1 + rng.below(16);
        params.l3CapacityLines = 256 + rng.below(16384);
        params.l3MissPenalty = 1 + rng.below(32);
        ASSERT_TRUE(params.validate(n).ok());

        const uint64_t epochCycles = 500 + rng.below(4000);
        auto memDemand = randomDemand(rng, n, 0, 2000);
        auto l3Demand = randomDemand(rng, n, 0, 2000);
        const size_t quiet = rng.below(n);
        memDemand[quiet] = 0;
        l3Demand[quiet] = 0;

        chip::ContentionLayer layerA(params, n);
        const auto a = layerA.step(epochCycles, memDemand, l3Demand);

        // Conservation at the layer level.
        uint64_t granted = 0;
        for (uint64_t g : a.memGrant)
            granted += g;
        EXPECT_LE(granted, a.memBudget);
        // A core demanding nothing is never stalled.
        EXPECT_EQ(a.stall[quiet], 0u);

        // Raising one co-runner's demand never reduces another core's
        // stall (fresh layers: identical starting occupancy).
        auto memBumped = memDemand;
        auto l3Bumped = l3Demand;
        const size_t bumped = rng.below(n);
        memBumped[bumped] += 1 + rng.below(2000);
        l3Bumped[bumped] += 1 + rng.below(2000);
        chip::ContentionLayer layerB(params, n);
        const auto b = layerB.step(epochCycles, memBumped, l3Bumped);
        for (size_t i = 0; i < n; ++i) {
            if (i == bumped)
                continue;
            EXPECT_GE(b.stall[i], a.stall[i])
                << "raising core " << bumped
                << "'s demand lowered core " << i << "'s stall";
        }
    }
}

TEST(ContentionProps, CoRunnerNeverRaisesCoreIpc)
{
    for (const char* workload : {"xz", "mcf"}) {
        SCOPED_TRACE(workload);
        const core::CoreConfig cfg = core::power10();
        const workloads::WorkloadProfile profile =
            resolveProfile(workload);

        auto solo = workloads::makeChipSources(profile, 1, 1).value();
        const chip::ChipResult alone = chipMeasure(cfg, solo, 1, 1);

        auto duo = workloads::makeChipSources(profile, 2, 1).value();
        const chip::ChipResult shared = chipMeasure(cfg, duo, 2, 1);
        EXPECT_LE(shared.cores[0].ipc, alone.cores[0].ipc);

        auto quad = workloads::makeChipSources(profile, 4, 1).value();
        const chip::ChipResult crowded = chipMeasure(cfg, quad, 4, 1);
        EXPECT_LE(crowded.cores[0].ipc, shared.cores[0].ipc);
    }
}

// ---- Chip checkpoints ----

namespace {

/** Warm a chip, capture, finish the measurement; returns the
    checkpoint bytes and the finished window's fingerprint. */
std::pair<std::vector<uint8_t>, std::string>
captureChipAndFinish(const core::CoreConfig& cfg, int cores, int smt)
{
    const workloads::WorkloadProfile profile = resolveProfile("xz");
    auto b = workloads::makeChipSources(profile, cores, smt).value();
    chip::ChipModel chip(homogeneousChip(cfg, cores));
    chip.beginRun(b.threads);
    chip.advance(kWarmupPerThread * static_cast<uint64_t>(smt));

    ckpt::CheckpointMeta meta;
    meta.configName = cfg.name;
    meta.workload = profile.name;
    meta.warmupInstrs = kWarmupPerThread * static_cast<uint64_t>(smt);
    meta.seed = profile.seed;
    auto ck = chip::captureChipCheckpoint(chip, b.walkers, meta);

    chip::ChipRunOptions opts;
    opts.measureInstrs = kMeasure;
    return {ck.toBytes(), chipFingerprint(chip.measure(opts))};
}

/** Restore bytes into a fresh chip and measure. */
common::Expected<std::string>
restoreChipAndMeasure(const core::CoreConfig& cfg, int cores, int smt,
                      const std::vector<uint8_t>& bytes)
{
    auto ckOr = ckpt::Checkpoint::fromBytes(bytes);
    if (!ckOr.ok())
        return ckOr.error();
    const workloads::WorkloadProfile profile = resolveProfile("xz");
    auto b = workloads::makeChipSources(profile, cores, smt).value();
    chip::ChipModel chip(homogeneousChip(cfg, cores));
    chip.beginRun(b.threads);
    if (auto st = chip::restoreChipCheckpoint(ckOr.value(), chip,
                                              b.walkers);
        !st.ok())
        return st.error();
    chip::ChipRunOptions opts;
    opts.measureInstrs = kMeasure;
    return chipFingerprint(chip.measure(opts));
}

} // namespace

TEST(ChipCkpt, RestoreThenMeasureBitIdentical)
{
    for (int cores : {2, 4}) {
        SCOPED_TRACE("cores=" + std::to_string(cores));
        auto [bytes, cold] =
            captureChipAndFinish(core::power10(), cores, 2);
        auto warm =
            restoreChipAndMeasure(core::power10(), cores, 2, bytes);
        ASSERT_TRUE(warm.ok()) << warm.error().str();
        EXPECT_EQ(warm.value(), cold);
    }
}

TEST(ChipCkpt, CaptureIsDeterministic)
{
    const workloads::WorkloadProfile profile = resolveProfile("xz");
    auto b = workloads::makeChipSources(profile, 2, 1).value();
    chip::ChipModel chip(homogeneousChip(core::power10(), 2));
    chip.beginRun(b.threads);
    chip.advance(kWarmupPerThread);
    auto a = chip::captureChipCheckpoint(chip, b.walkers, {});
    auto c = chip::captureChipCheckpoint(chip, b.walkers, {});
    EXPECT_EQ(a.toBytes(), c.toBytes());
}

TEST(ChipCkpt, WrongCoreCountRejectedWithSpecificError)
{
    auto [bytes, print] =
        captureChipAndFinish(core::power10(), 2, 1);
    (void)print;
    auto r = restoreChipAndMeasure(core::power10(), 4, 1, bytes);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, common::ErrorCode::InvalidArgument);
    EXPECT_NE(r.error().message.find("core"), std::string::npos)
        << r.error().message;
}

TEST(ChipCkpt, MixedConfigHashRejectedWithSpecificError)
{
    auto [bytes, print] =
        captureChipAndFinish(core::power10(), 2, 1);
    (void)print;
    auto ckOr = ckpt::Checkpoint::fromBytes(bytes);
    ASSERT_TRUE(ckOr.ok());

    // Restore into a chip whose second core is a different machine.
    const workloads::WorkloadProfile profile = resolveProfile("xz");
    auto b = workloads::makeChipSources(profile, 2, 1).value();
    chip::ChipConfig mixed;
    mixed.cores = {core::power10(), core::power9()};
    chip::ChipModel chip(mixed);
    chip.beginRun(b.threads);
    auto st = chip::restoreChipCheckpoint(ckOr.value(), chip,
                                          b.walkers);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.error().message.find("config"), std::string::npos)
        << st.error().message;
}

TEST(ChipCkpt, ChipConfigHashSensitiveToEveryKnob)
{
    const chip::ChipConfig base = homogeneousChip(core::power10(), 2);
    const uint64_t h = chip::chipConfigHash(base);
    auto mutate = [&](auto fn, const char* what) {
        chip::ChipConfig c = base;
        fn(c);
        EXPECT_NE(chip::chipConfigHash(c), h) << what;
    };
    mutate([](chip::ChipConfig& c) { c.cores.push_back(c.cores[0]); },
           "core count");
    mutate([](chip::ChipConfig& c) { c.cores[1] = core::power9(); },
           "core config");
    mutate([](chip::ChipConfig& c) { ++c.contention.memLinesPer16Cycles; },
           "contention.memLinesPer16Cycles");
    mutate([](chip::ChipConfig& c) { ++c.contention.l3CapacityLines; },
           "contention.l3CapacityLines");
    mutate([](chip::ChipConfig& c) { c.governor.throttleGainPerWatt += 0.01; },
           "governor.throttleGainPerWatt");
    mutate([](chip::ChipConfig& c) { c.governor.wof.tdpWatts += 1.0; },
           "governor.wof.tdpWatts");
    mutate([](chip::ChipConfig& c) { ++c.epochInstrs; }, "epochInstrs");
    mutate([](chip::ChipConfig& c) { ++c.seed; }, "seed");
}

// ---- Hostile input (runs under ASan/UBSan in CI) ----

TEST(ChipCkptHostile, TruncationFuzzEveryPrefixRejected)
{
    auto [bytes, print] =
        captureChipAndFinish(core::power10(), 2, 1);
    (void)print;
    // Dense over the header, then ~200 samples across the body: each
    // probe checksums the whole multi-megabyte file.
    const size_t stride = std::max<size_t>(bytes.size() / 200, 97);
    for (size_t len = 0; len < bytes.size();
         len += (len < 64 ? 1 : stride)) {
        auto r = ckpt::Checkpoint::fromBytes(bytes.data(), len);
        EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes";
        if (!r.ok()) {
            EXPECT_EQ(r.error().code,
                      common::ErrorCode::InvalidArgument);
        }
    }
}

TEST(ChipCkptHostile, CorruptSingleByteFlipAlwaysRejected)
{
    auto [bytes, print] =
        captureChipAndFinish(core::power10(), 2, 1);
    (void)print;
    const size_t stride = std::max<size_t>(bytes.size() / 200, 131);
    for (size_t pos = 0; pos < bytes.size();
         pos += (pos < 64 ? 1 : stride)) {
        auto copy = bytes;
        copy[pos] ^= 0xFF;
        auto r = ckpt::Checkpoint::fromBytes(copy);
        EXPECT_FALSE(r.ok()) << "flip at byte " << pos;
    }
}

TEST(ChipCkptHostile, CorruptPayloadFuzzNeverCrashes)
{
    // Rebuild a structurally valid container around a hostile payload
    // (Checkpoint::fromParts recomputes the checksum), so the chip
    // payload parser itself faces the corruption — truncations at
    // every prefix and byte flips must all fail structurally.
    auto [bytes, print] =
        captureChipAndFinish(core::power10(), 2, 1);
    (void)print;
    auto ckOr = ckpt::Checkpoint::fromBytes(bytes);
    ASSERT_TRUE(ckOr.ok());
    const ckpt::Checkpoint& ck = ckOr.value();
    const std::vector<uint8_t>& payload = ck.payload();

    auto restoreHostile = [&](std::vector<uint8_t> corrupt) {
        auto hostile = ckpt::Checkpoint::fromParts(
            ck.meta(), ck.capturedConfigHash(), std::move(corrupt));
        const workloads::WorkloadProfile profile =
            resolveProfile("xz");
        auto b = workloads::makeChipSources(profile, 2, 1).value();
        chip::ChipModel chip(homogeneousChip(core::power10(), 2));
        chip.beginRun(b.threads);
        return chip::restoreChipCheckpoint(hostile, chip, b.walkers);
    };

    const size_t stride = std::max<size_t>(payload.size() / 64, 257);
    for (size_t len = 0; len < payload.size();
         len += (len < 64 ? 1 : stride)) {
        auto st = restoreHostile(std::vector<uint8_t>(
            payload.begin(),
            payload.begin() + static_cast<ptrdiff_t>(len)));
        EXPECT_FALSE(st.ok()) << "payload prefix of " << len;
    }
    common::Xoshiro rng(0xBADC0DE);
    for (int iter = 0; iter < 16; ++iter) {
        auto copy = payload;
        copy[rng.below(copy.size())] ^= 1 + rng.below(255);
        // A flip may hit redundant padding-free state and still parse;
        // the property under test is "no crash, no OOB read" (ASan).
        (void)restoreHostile(std::move(copy));
    }
}

// ---- Telemetry ownership (the N-publishers fix) ----

TEST(ChipRecorderDeathTest, CrossThreadPublishDies)
{
    obs::TimeSeriesRecorder rec(64);
    auto track = rec.counter("t", "");
    rec.sample(track, 1, 1.0); // binds this thread as the owner
    EXPECT_DEATH(
        {
            std::thread other(
                [&] { rec.sample(track, 2, 2.0); });
            other.join();
        },
        "published from a second thread");
}

TEST(ChipRecorder, FourCoreTelemetryMergesPerCoreTracks)
{
    const workloads::WorkloadProfile profile = resolveProfile("xz");
    obs::TimeSeriesRecorder rec(256);
    auto b = workloads::makeChipSources(profile, 4, 1).value();
    (void)chipMeasure(core::power10(), b, 4, 1, 4, &rec);

    std::vector<std::string> names;
    for (const auto& track : rec.counters())
        names.push_back(track.name);
    for (const char* expect :
         {"chip.power_w", "chip.freq_ghz", "chip.stall_frac",
          "chip.ipc", "chip.core0.ipc", "chip.core3.ipc",
          "chip.core0.stall_cycles"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expect),
                  names.end())
            << expect;
    }
}

// ---- Golden corpus ----
//
// Committed 2- and 4-core chip checkpoints plus the fingerprints of
// the measured window that follows them. Regenerate with:
//   P10EE_REGEN_GOLDEN=1 ./test_chip --gtest_filter='*Golden*'

namespace {

struct ChipGoldenCase
{
    int cores;
    int smt;
    const char* stem;
};

constexpr ChipGoldenCase kChipGolden[] = {
    {2, 1, "chip2_p10"},
    {4, 2, "chip4_p10"},
};

} // namespace

TEST(ChipGolden, CorpusRoundTripsBitIdentical)
{
    const bool regen = std::getenv("P10EE_REGEN_GOLDEN") != nullptr;
    for (const ChipGoldenCase& g : kChipGolden) {
        SCOPED_TRACE(g.stem);
        const std::string ckptPath =
            goldenDir() + "/" + g.stem + ".ckpt";
        const std::string statsPath =
            goldenDir() + "/" + g.stem + ".stats.txt";
        if (regen) {
            auto [bytes, print] =
                captureChipAndFinish(core::power10(), g.cores, g.smt);
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
        auto warm = restoreChipAndMeasure(core::power10(), g.cores,
                                          g.smt, bytes);
        ASSERT_TRUE(warm.ok()) << warm.error().str();
        EXPECT_EQ(warm.value(), readFile(statsPath));
        // A restore cannot see a change in how saveState orders or
        // encodes state; a fresh capture must reproduce the file.
        EXPECT_TRUE(
            captureChipAndFinish(core::power10(), g.cores, g.smt).first ==
            bytes)
            << "a fresh capture differs from " << ckptPath;
    }
}

TEST(ChipGolden, CorpusMetaMatchesCases)
{
    if (std::getenv("P10EE_REGEN_GOLDEN") != nullptr)
        GTEST_SKIP() << "regenerating";
    for (const ChipGoldenCase& g : kChipGolden) {
        const std::string raw =
            readFile(goldenDir() + "/" + g.stem + ".ckpt");
        std::vector<uint8_t> bytes(raw.begin(), raw.end());
        auto ckOr = ckpt::Checkpoint::fromBytes(bytes);
        ASSERT_TRUE(ckOr.ok())
            << g.stem << ": " << ckOr.error().str();
        EXPECT_EQ(ckOr.value().meta().workload, "xz");
        EXPECT_EQ(ckOr.value().meta().numThreads,
                  static_cast<uint32_t>(g.cores * g.smt));
        EXPECT_EQ(ckOr.value().capturedConfigHash(),
                  chip::chipConfigHash(
                      homogeneousChip(core::power10(), g.cores)));
    }
}

// ---- runOne chip path ----

TEST(ChipRunOne, ChipCheckpointSaveLoadRoundTrip)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "p10ee_chip.ckpt")
            .string();
    api::Service service;

    // The bare-core checkpoint (cores = 1, at SMT2) and the per-core
    // chip snapshot (cores = 2): either restore must reproduce the
    // cold run's report bytes exactly.
    api::RunRequest load;
    for (const auto& [cores, smt] : {std::pair{1, 2}, std::pair{2, 1}}) {
        api::RunRequest save;
        save.workload = "xz";
        save.smt = smt;
        save.cores = cores;
        save.instrs = kMeasure;
        save.warmup = kWarmupPerThread;
        save.ckptSave = path;
        auto cold = service.runOne(save);
        ASSERT_TRUE(cold.ok()) << cold.error().str();

        load = save;
        load.ckptSave.clear();
        load.ckptLoad = path;
        auto warm = service.runOne(load);
        ASSERT_TRUE(warm.ok()) << warm.error().str();
        EXPECT_EQ(warm.value().warmupSimulated, 0u) << cores;
        EXPECT_EQ(warm.value().run.stats, cold.value().run.stats)
            << cores;
        EXPECT_EQ(chipFingerprint(warm.value().chip),
                  chipFingerprint(cold.value().chip))
            << cores;
        EXPECT_EQ(api::Service::runReport(load, warm.value()).toJson(),
                  api::Service::runReport(save, cold.value()).toJson())
            << cores;
    }

    // Loading the 2-core checkpoint into a 4-core request must fail
    // with the structured core-count error.
    api::RunRequest wrong = load;
    wrong.cores = 4;
    auto bad = service.runOne(wrong);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.error().message.find("core"), std::string::npos);
    std::filesystem::remove(path);
}

TEST(ChipRunOne, ReportRollupEqualsPerCoreSums)
{
    api::Service service;
    // ml_analytics carries the floating-point work mcf lacks, so the
    // flops sum is checked on a nonzero value too.
    for (const char* workload : {"mcf", "ml_analytics"}) {
        api::RunRequest req;
        req.workload = workload;
        req.cores = 4;
        req.smt = 2;
        req.instrs = kMeasure;
        req.warmup = kWarmupPerThread;
        auto outcomeOr = service.runOne(req);
        ASSERT_TRUE(outcomeOr.ok()) << outcomeOr.error().str();
        const api::RunOutcome& out = outcomeOr.value();
        ASSERT_EQ(out.chip.cores.size(), 4u);

        uint64_t instrs = 0;
        uint64_t ops = 0;
        uint64_t flops = 0;
        uint64_t maxEff = 0;
        double powerW = 0.0;
        for (const auto& co : out.chip.cores) {
            instrs += co.run.instrs;
            ops += co.run.ops;
            flops += co.run.flops;
            maxEff = std::max(maxEff, co.effCycles);
            powerW += co.powerW;
            EXPECT_EQ(co.effCycles, co.run.cycles + co.stallCycles);
        }
        EXPECT_EQ(out.chip.instrs, instrs);
        EXPECT_EQ(out.chip.chipCycles, maxEff);
        EXPECT_NEAR(out.chip.powerW, powerW, 1e-9);
        EXPECT_EQ(out.run.cycles, out.chip.chipCycles);
        EXPECT_EQ(out.run.instrs, out.chip.instrs);
        EXPECT_GT(ops, 0u);
        EXPECT_EQ(out.run.ops, ops) << workload;
        EXPECT_EQ(out.run.flops, flops) << workload;
        EXPECT_NEAR(out.powerW(), out.chip.powerW, 1e-6 * powerW);
    }
}
