/**
 * @file
 * Structured-error and graceful-degradation tests: Expected/Error,
 * P10_ASSERT_FMT semantics, CoreConfig::validate(), throttle-loop and
 * droop-model edge cases, proxy counter screening, and the seeded-run
 * determinism regression the whole fault methodology rests on.
 */

#include <cmath>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "common/assert.h"
#include "common/error.h"
#include "core/core.h"
#include "model/proxy.h"
#include "pm/throttle.h"
#include "power/energy.h"
#include "workloads/spec_profiles.h"
#include "workloads/synthetic.h"

using namespace p10ee;

// ---------------------------------------------------------------- Error

TEST(Error, FactoriesSetCodesAndStr)
{
    auto e = common::Error::invalidConfig("bad geometry");
    EXPECT_EQ(e.code, common::ErrorCode::InvalidConfig);
    EXPECT_EQ(e.str(), "invalid_config: bad geometry");
    EXPECT_EQ(common::Error::transient("x").code,
              common::ErrorCode::Transient);
    EXPECT_EQ(common::Error::notFound("x").code,
              common::ErrorCode::NotFound);
    EXPECT_EQ(common::Error::timeout("x").code,
              common::ErrorCode::Timeout);
    EXPECT_EQ(common::Error::invalidArgument("x").code,
              common::ErrorCode::InvalidArgument);
}

TEST(Expected, HoldsValueOrError)
{
    common::Expected<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 7);
    EXPECT_EQ(good.valueOr(0), 7);

    common::Expected<int> bad(common::Error::notFound("nope"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, common::ErrorCode::NotFound);
    EXPECT_EQ(bad.valueOr(-1), -1);

    common::Status ok = common::okStatus();
    EXPECT_TRUE(ok.ok());
    common::Status failed = common::Error::timeout("budget blown");
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code, common::ErrorCode::Timeout);
}

TEST(Expected, MoveOutValue)
{
    common::Expected<std::unique_ptr<int>> e(std::make_unique<int>(3));
    ASSERT_TRUE(e.ok());
    std::unique_ptr<int> p = std::move(e).value();
    EXPECT_EQ(*p, 3);
}

// --------------------------------------------------------------- assert

TEST(Assert, ConditionEvaluatedExactlyOnce)
{
    int calls = 0;
    auto once = [&calls]() {
        ++calls;
        return true;
    };
    P10_ASSERT(once(), "must hold");
    EXPECT_EQ(calls, 1);

    calls = 0;
    P10_ASSERT_FMT(once(), "value was %d", 42);
    EXPECT_EQ(calls, 1);

    // No-argument FMT form must also compile (__VA_OPT__ path).
    calls = 0;
    P10_ASSERT_FMT(once(), "no args");
    EXPECT_EQ(calls, 1);
}

TEST(AssertDeathTest, FmtMessageReachesStderr)
{
    EXPECT_DEATH(P10_ASSERT_FMT(1 == 2, "got %d instead of %d", 7, 9),
                 "p10ee panic.*got 7 instead of 9");
}

// ------------------------------------------------- CoreConfig::validate

TEST(ConfigValidate, ShippedConfigsPass)
{
    EXPECT_TRUE(core::power9().validate().ok());
    EXPECT_TRUE(core::power10().validate().ok());
    for (int g = 0; g < static_cast<int>(core::AblationGroup::NumGroups);
         ++g) {
        auto cfg =
            core::power10Without(static_cast<core::AblationGroup>(g));
        EXPECT_TRUE(cfg.validate().ok()) << cfg.name;
    }
}

TEST(ConfigValidate, CollectsEveryViolation)
{
    core::CoreConfig cfg = core::power10();
    cfg.fetchWidth = 0;
    cfg.l1d.lineSize = 48;      // not a power of two
    cfg.bp.gshareBits = 40;     // table too large
    cfg.clockGateQuality = 1.5; // quality outside [0,1]
    cfg.robSize = 0;
    cfg.issueWidth = 256;       // beyond a throttle ring's 8-bit count

    auto s = cfg.validate();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, common::ErrorCode::InvalidConfig);
    const std::string& msg = s.error().message;
    EXPECT_NE(msg.find("fetchWidth"), std::string::npos) << msg;
    EXPECT_NE(msg.find("lineSize"), std::string::npos) << msg;
    EXPECT_NE(msg.find("gshareBits"), std::string::npos) << msg;
    EXPECT_NE(msg.find("clockGateQuality"), std::string::npos) << msg;
    EXPECT_NE(msg.find("robSize"), std::string::npos) << msg;
    EXPECT_NE(msg.find("issueWidth=256"), std::string::npos) << msg;
    // The offending design is named.
    EXPECT_NE(msg.find(cfg.name), std::string::npos) << msg;
}

// ------------------------------------------------------- throttle edges

TEST(ThrottleLoop, EmptySeriesYieldsEmptyTrace)
{
    pm::ThrottleParams params;
    params.budgetPj = 50.0;
    auto trace = pm::runThrottleLoop({}, params);
    EXPECT_TRUE(trace.level.empty());
    EXPECT_TRUE(trace.powerPj.empty());
    EXPECT_EQ(trace.meanPowerPj, 0.0);
    EXPECT_EQ(trace.overBudgetFrac, 0.0);
    EXPECT_EQ(trace.staleIntervals, 0u);
}

TEST(ThrottleLoop, NonPositiveBudgetPinsConservativeFallback)
{
    pm::ThrottleParams params;
    params.levels = 8;
    for (double budget : {0.0, -10.0}) {
        params.budgetPj = budget;
        std::vector<float> series(32, 100.0f);
        auto trace = pm::runThrottleLoop(series, params);
        ASSERT_EQ(trace.level.size(), series.size());
        for (int lvl : trace.level)
            EXPECT_EQ(lvl, params.levels - 1);
        EXPECT_EQ(trace.overBudgetFrac, 1.0);
        for (double p : trace.powerPj)
            EXPECT_TRUE(std::isfinite(p));
    }
}

TEST(ThrottleLoop, ZeroLevelsClampsToPassThrough)
{
    pm::ThrottleParams params;
    params.budgetPj = 50.0;
    params.levels = 0;
    std::vector<float> series(16, 100.0f);
    auto trace = pm::runThrottleLoop(series, params);
    ASSERT_EQ(trace.level.size(), series.size());
    for (int lvl : trace.level)
        EXPECT_EQ(lvl, 0); // one step only: no throttling possible
    EXPECT_DOUBLE_EQ(trace.meanPowerPj, 100.0);
    EXPECT_EQ(trace.overBudgetFrac, 1.0);
}

TEST(ThrottleLoop, StaleReadingsEngageFallbackAndRecover)
{
    pm::ThrottleParams params;
    params.budgetPj = 120.0; // generous: valid intervals unthrottled
    params.levels = 8;
    params.staleFallbackLevel = 5;

    std::vector<float> series(64, 80.0f);
    series[10] = std::nanf("");
    series[11] = -1.0f;
    series[12] = std::numeric_limits<float>::infinity();

    auto trace = pm::runThrottleLoop(series, params);
    EXPECT_EQ(trace.staleIntervals, 3u);
    EXPECT_EQ(trace.level[10], 5);
    EXPECT_EQ(trace.level[11], 5);
    EXPECT_EQ(trace.level[12], 5);
    // Before and well after the corruption the loop runs unthrottled.
    EXPECT_EQ(trace.level[9], 0);
    EXPECT_EQ(trace.level.back(), 0);
    for (double p : trace.powerPj)
        EXPECT_TRUE(std::isfinite(p));
}

TEST(ThrottleLoop, AllStaleSeriesStaysWellFormed)
{
    pm::ThrottleParams params;
    params.budgetPj = 50.0;
    std::vector<float> series(16, std::nanf(""));
    auto trace = pm::runThrottleLoop(series, params);
    EXPECT_EQ(trace.staleIntervals, series.size());
    for (double p : trace.powerPj) {
        EXPECT_TRUE(std::isfinite(p));
        EXPECT_EQ(p, 0.0); // no good reading ever arrived
    }
    EXPECT_TRUE(std::isfinite(trace.meanPowerPj));
    EXPECT_TRUE(std::isfinite(trace.meanPerf));
}

// ----------------------------------------------------------- DDS droop

namespace {

/** A load step that sags past the DDS threshold and never lets up. */
std::vector<float>
relentlessDroopSeries()
{
    std::vector<float> series;
    series.assign(128, 100.0f); // calm lead: sets the baseline
    series.insert(series.end(), 4000, 9000.0f);
    return series;
}

} // namespace

TEST(Droop, EmptySeriesIsGraceful)
{
    pm::DroopParams params;
    auto trace = pm::simulateDroop({}, params);
    EXPECT_TRUE(trace.voltage.empty());
    EXPECT_EQ(trace.ddsTrips, 0);
    EXPECT_DOUBLE_EQ(trace.minVoltage, params.supplyVolts);
}

TEST(Droop, GrowthOneKeepsLegacyBehaviour)
{
    pm::DroopParams params;
    params.backoffGrowth = 1.0;
    auto trace = pm::simulateDroop(relentlessDroopSeries(), params);
    EXPECT_GT(trace.ddsTrips, 1);
    EXPECT_EQ(trace.backoffEscalations, 0);
    for (float v : trace.voltage)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(Droop, NeverRecoveringDroopEscalatesHolds)
{
    pm::DroopParams params;
    params.backoffGrowth = 2.0;
    params.retripWindowCycles = 32;
    params.maxThrottleCycles = 512;

    auto series = relentlessDroopSeries();
    auto legacy = [&] {
        pm::DroopParams l = params;
        l.backoffGrowth = 1.0;
        return pm::simulateDroop(series, l);
    }();
    auto trace = pm::simulateDroop(series, params);

    // The hysteresis escalated at least once, trips became fewer and
    // longer, and the trace stayed well-formed throughout.
    EXPECT_GT(trace.backoffEscalations, 0);
    EXPECT_LT(trace.ddsTrips, legacy.ddsTrips);
    EXPECT_GT(trace.throttledCycles, 0u);
    ASSERT_EQ(trace.voltage.size(), series.size());
    for (float v : trace.voltage)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(Droop, DisabledDdsNeverTrips)
{
    pm::DroopParams params;
    params.ddsEnabled = false;
    auto trace = pm::simulateDroop(relentlessDroopSeries(), params);
    EXPECT_EQ(trace.ddsTrips, 0);
    EXPECT_EQ(trace.throttledCycles, 0u);
    for (float v : trace.voltage)
        EXPECT_TRUE(std::isfinite(v));
}

// ------------------------------------------------------ counter screen

TEST(CounterScreen, ClampsImplausibleReads)
{
    common::StatSnapshot stats;
    stats["cycles"] = 1000;
    stats["alu.issue"] = 4000;
    stats["l1d.miss"] = 0xffffffffffffull; // torn/corrupted read-out
    auto screen = model::screenCounters(stats, 1000);
    EXPECT_EQ(screen.flagged, 1);
    EXPECT_LE(screen.cleaned.at("l1d.miss"), 64u * 1000u);
    EXPECT_EQ(screen.cleaned.at("alu.issue"), 4000u);
    EXPECT_EQ(screen.cleaned.at("cycles"), 1000u); // exempt
}

TEST(CounterScreen, CleanSnapshotUntouched)
{
    common::StatSnapshot stats;
    stats["cycles"] = 1000;
    stats["decode.instr"] = 6000;
    auto screen = model::screenCounters(stats, 1000);
    EXPECT_EQ(screen.flagged, 0);
    EXPECT_EQ(screen.cleaned, stats);
}

// ------------------------------------------------ determinism regression

TEST(Determinism, SeededRunIsBitIdenticalIncludingEnergy)
{
    const auto cfg = core::power10();
    const auto& profile = workloads::profileByName("omnetpp");

    auto runOnce = [&]() {
        std::vector<std::unique_ptr<workloads::SyntheticWorkload>> owned;
        std::vector<workloads::InstrSource*> threads;
        for (int t = 0; t < 2; ++t) {
            owned.push_back(
                std::make_unique<workloads::SyntheticWorkload>(profile,
                                                               t));
            threads.push_back(owned.back().get());
        }
        core::CoreModel model(cfg);
        core::RunOptions opts;
        opts.warmupInstrs = 5000;
        opts.measureInstrs = 20000;
        return model.run(threads, opts);
    };

    const core::RunResult a = runOnce();
    const core::RunResult b = runOnce();

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.flops, b.flops);
    // Bit-identical StatRegistry snapshots: every counter, exactly.
    EXPECT_EQ(a.stats, b.stats);

    power::EnergyModel energy(cfg);
    const auto pa = energy.evalCounters(a);
    const auto pb = energy.evalCounters(b);
    EXPECT_EQ(pa.totalPj, pb.totalPj); // exact equality, not tolerance
    EXPECT_EQ(pa.clockPj, pb.clockPj);
    EXPECT_EQ(pa.switchPj, pb.switchPj);
    EXPECT_EQ(pa.leakPj, pb.leakPj);
    ASSERT_EQ(pa.perComponent.size(), pb.perComponent.size());
    for (const auto& [name, pj] : pa.perComponent)
        EXPECT_EQ(pj, pb.perComponent.at(name)) << name;
}
