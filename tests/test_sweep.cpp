/**
 * @file
 * Sweep-engine tests: the work-stealing pool's execution and error
 * contracts, RNG stream derivation, JSON spec parsing, grid expansion
 * order, the byte-determinism of merged reports across thread counts,
 * timeout/retry/skip recording, output-collision detection, and the
 * parallel fault campaign's jobs-independence.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "fault/campaign.h"
#include "obs/json.h"
#include "sweep/pool.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

using namespace p10ee;

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    sweep::ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    sweep::ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(64);
    pool.parallelFor(64, [&hits](uint64_t i) {
        hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, NestedSubmitsFromTasksComplete)
{
    sweep::ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&pool, &count] {
            // Tasks submitted from a worker land on its own deque and
            // may be stolen by idle workers; all must still run.
            for (int j = 0; j < 4; ++j)
                pool.submit([&count] { count.fetch_add(1); });
            count.fetch_add(1);
        });
    pool.wait();
    EXPECT_EQ(count.load(), 8 * 5);
}

TEST(ThreadPool, WaitRethrowsFirstTaskException)
{
    sweep::ThreadPool pool(2);
    std::atomic<int> survivors{0};
    pool.submit([] { throw std::runtime_error("task died"); });
    for (int i = 0; i < 10; ++i)
        pool.submit([&survivors] { survivors.fetch_add(1); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error never takes the pool down: later tasks still ran and
    // the pool is reusable after the rethrow.
    EXPECT_EQ(survivors.load(), 10);
    pool.submit([&survivors] { survivors.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(survivors.load(), 11);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> count{0};
    {
        sweep::ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { count.fetch_add(1); });
        // No wait(): destruction itself must drain.
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne)
{
    sweep::ThreadPool pool(0);
    EXPECT_EQ(pool.threads(), 1);
    std::atomic<int> count{0};
    pool.parallelFor(5, [&count](uint64_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 5);
}

// ---------------------------------------------------------------------
// RNG stream derivation
// ---------------------------------------------------------------------

TEST(SplitSeed, NeighbouringStreamsAreDecorrelated)
{
    // Consecutive stream ids (the shard-index pattern) must land on
    // seeds that differ in roughly half their bits.
    for (uint64_t master : {1ull, 42ull, 0xdeadbeefull}) {
        for (uint64_t i = 0; i < 16; ++i) {
            const uint64_t a = common::splitSeed(master, i);
            const uint64_t b = common::splitSeed(master, i + 1);
            const int bits = __builtin_popcountll(a ^ b);
            EXPECT_GT(bits, 12) << "master " << master << " id " << i;
            EXPECT_LT(bits, 52) << "master " << master << " id " << i;
        }
    }
}

TEST(SplitSeed, IsAPureFunction)
{
    EXPECT_EQ(common::splitSeed(7, 3), common::splitSeed(7, 3));
    EXPECT_NE(common::splitSeed(7, 3), common::splitSeed(7, 4));
    EXPECT_NE(common::splitSeed(7, 3), common::splitSeed(8, 3));
}

TEST(Xoshiro, SplitDerivesFromConstructionSeedNotState)
{
    common::Xoshiro a(99);
    common::Xoshiro b(99);
    for (int i = 0; i < 37; ++i)
        a.next(); // advancing the parent must not move its splits
    common::Xoshiro sa = a.split(5);
    common::Xoshiro sb = b.split(5);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(sa.next(), sb.next());
}

// ---------------------------------------------------------------------
// JSON parser + output-collision helper
// ---------------------------------------------------------------------

TEST(ParseJson, ParsesTypicalSpecDocument)
{
    auto doc = obs::parseJson(
        "{\"a\": [1, 2.5, -3], \"b\": \"x\\ny\", \"c\": true, "
        "\"d\": null, \"e\": {\"k\": 7}}");
    ASSERT_TRUE(doc.ok());
    const obs::JsonValue& v = doc.value();
    ASSERT_TRUE(v.isObject());
    ASSERT_NE(v.find("a"), nullptr);
    EXPECT_EQ(v.find("a")->array.size(), 3u);
    EXPECT_DOUBLE_EQ(v.find("a")->array[1].number, 2.5);
    EXPECT_EQ(v.find("b")->string, "x\ny");
    EXPECT_TRUE(v.find("c")->boolean);
    EXPECT_TRUE(v.find("d")->isNull());
    EXPECT_DOUBLE_EQ(v.find("e")->find("k")->number, 7.0);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ParseJson, ReportsPositionOnMalformedInput)
{
    auto doc = obs::parseJson("{\n  \"a\": 1,\n  \"b\" 2\n}");
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.error().code, common::ErrorCode::InvalidArgument);
    // 1-based line:column of the offending token.
    EXPECT_NE(doc.error().message.find("3:"), std::string::npos)
        << doc.error().message;
}

TEST(ParseJson, RejectsDuplicateKeysAndTrailingGarbage)
{
    EXPECT_FALSE(obs::parseJson("{\"a\": 1, \"a\": 2}").ok());
    EXPECT_FALSE(obs::parseJson("{} extra").ok());
    EXPECT_FALSE(obs::parseJson("").ok());
}

TEST(ParseJson, AsU64RejectsNegativeAndFractional)
{
    auto doc = obs::parseJson("{\"n\": -1, \"f\": 1.5, \"k\": 12}");
    ASSERT_TRUE(doc.ok());
    EXPECT_FALSE(doc.value().find("n")->asU64("n").ok());
    EXPECT_FALSE(doc.value().find("f")->asU64("f").ok());
    auto k = doc.value().find("k")->asU64("k");
    ASSERT_TRUE(k.ok());
    EXPECT_EQ(k.value(), 12u);
}

TEST(DistinctOutputPaths, FlagsCollisionsIgnoresEmpties)
{
    EXPECT_TRUE(obs::distinctOutputPaths({}).ok());
    EXPECT_TRUE(obs::distinctOutputPaths({"a.json", "b.json"}).ok());
    EXPECT_TRUE(obs::distinctOutputPaths({"", "", "a.json"}).ok());
    auto st = obs::distinctOutputPaths({"a.json", "b.json", "a.json"});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, common::ErrorCode::InvalidArgument);
    EXPECT_NE(st.error().message.find("a.json"), std::string::npos);
}

// ---------------------------------------------------------------------
// SweepSpec
// ---------------------------------------------------------------------

namespace {

sweep::SweepSpec
smallSpec()
{
    sweep::SweepSpec spec;
    spec.configs = {"power9", "power10"};
    spec.workloads = {"perlbench", "mcf"};
    spec.smt = {1, 2};
    spec.seeds = 2;
    spec.instrs = 2000;
    spec.warmup = 400;
    spec.seed = 11;
    return spec;
}

} // namespace

TEST(SweepSpec, ParsesFullDocumentAndRejectsUnknownKeys)
{
    auto spec = sweep::SweepSpec::fromJson(
        "{\"configs\": [\"power10\", \"ablate:queues\"],"
        "\"workloads\": [\"xz\"], \"smt\": [1, 8], \"seeds\": 3,"
        "\"instrs\": 5000, \"warmup\": 1000, \"max_cycles\": 100000,"
        "\"max_retries\": 1, \"infra_fail_prob\": 0.5, \"seed\": 9,"
        "\"sample_interval\": 256, \"shard_reports_dir\": \"shards\"}");
    ASSERT_TRUE(spec.ok()) << spec.error().str();
    EXPECT_EQ(spec.value().configs.size(), 2u);
    EXPECT_EQ(spec.value().shardCount(), 2u * 1 * 2 * 3);
    EXPECT_EQ(spec.value().maxCycles, 100000u);
    EXPECT_EQ(spec.value().sampleInterval, 256u);

    // A typo must not silently shrink a sweep.
    auto typo = sweep::SweepSpec::fromJson(
        "{\"configs\": [\"power10\"], \"workloads\": [\"xz\"],"
        "\"seedz\": 3}");
    ASSERT_FALSE(typo.ok());
    EXPECT_NE(typo.error().message.find("seedz"), std::string::npos);
}

TEST(SweepSpec, ValidateCollectsAllProblems)
{
    sweep::SweepSpec spec;
    spec.smt = {3};
    spec.seeds = 0;
    spec.instrs = 0;
    spec.infraFailProb = 1.5;
    auto st = spec.validate();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, common::ErrorCode::InvalidConfig);
    for (const char* frag : {"configs", "workloads", "smt", "seeds",
                             "instrs", "infra_fail_prob"})
        EXPECT_NE(st.error().message.find(frag), std::string::npos)
            << frag;
}

TEST(SweepSpec, ExpandRejectsUnknownNames)
{
    auto spec = smallSpec();
    spec.configs = {"power11"};
    auto bad = spec.expand();
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, common::ErrorCode::NotFound);

    spec = smallSpec();
    spec.workloads = {"fortnite"};
    bad = spec.expand();
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, common::ErrorCode::NotFound);

    spec = smallSpec();
    spec.configs = {"ablate:nonesuch"};
    bad = spec.expand();
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.error().message.find("nonesuch"), std::string::npos);
}

TEST(SweepSpec, ExpansionOrderIsNestedLoopsConfigsOutermost)
{
    auto spec = smallSpec();
    auto shards = spec.expand();
    ASSERT_TRUE(shards.ok());
    ASSERT_EQ(shards.value().size(), spec.shardCount());
    EXPECT_EQ(shards.value()[0].key(), "power9/perlbench/smt1/seed0");
    EXPECT_EQ(shards.value()[1].key(), "power9/perlbench/smt1/seed1");
    EXPECT_EQ(shards.value()[2].key(), "power9/perlbench/smt2/seed0");
    EXPECT_EQ(shards.value()[4].key(), "power9/mcf/smt1/seed0");
    EXPECT_EQ(shards.value()[8].key(), "power10/perlbench/smt1/seed0");
    for (size_t i = 0; i < shards.value().size(); ++i)
        EXPECT_EQ(shards.value()[i].index, i);

    // Replica 0 runs the profile's own seed; replica 1 a split stream.
    EXPECT_NE(shards.value()[0].profile.seed,
              shards.value()[1].profile.seed);
    EXPECT_EQ(shards.value()[1].profile.seed,
              common::splitSeed(shards.value()[0].profile.seed, 1));
}

// ---------------------------------------------------------------------
// SweepRunner: determinism, timeout, retry/skip
// ---------------------------------------------------------------------

TEST(SweepRunner, MergedReportIsByteIdenticalAcrossJobCounts)
{
    const auto spec = smallSpec();
    std::vector<std::string> jsons;
    for (int jobs : {1, 4, 8}) {
        sweep::SweepRunner runner(spec);
        auto result = runner.run(jobs);
        ASSERT_TRUE(result.ok()) << result.error().str();
        EXPECT_EQ(result.value().okCount, spec.shardCount());
        jsons.push_back(
            sweep::SweepRunner::merge(spec, result.value(),
                                      "test_sweep")
                .toJson());
    }
    // The whole document, byte for byte — the determinism contract.
    EXPECT_EQ(jsons[0], jsons[1]);
    EXPECT_EQ(jsons[0], jsons[2]);
}

TEST(SweepRunner, TelemetrySeriesStayDeterministicAcrossJobs)
{
    auto spec = smallSpec();
    spec.configs = {"power10"};
    spec.smt = {1};
    spec.sampleInterval = 256;
    sweep::SweepRunner a(spec);
    sweep::SweepRunner b(spec);
    auto ra = a.run(1);
    auto rb = b.run(4);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    ASSERT_FALSE(ra.value().shards[0].ipcX.empty());
    EXPECT_EQ(
        sweep::SweepRunner::merge(spec, ra.value(), "t").toJson(),
        sweep::SweepRunner::merge(spec, rb.value(), "t").toJson());
}

TEST(SweepRunner, CycleBudgetOverrunIsRecordedAsTimeout)
{
    auto spec = smallSpec();
    spec.configs = {"power10"};
    spec.workloads = {"mcf"};
    spec.smt = {1};
    spec.seeds = 1;
    spec.maxCycles = 50; // absurdly tight: every shard must trip it
    sweep::SweepRunner runner(spec);
    auto result = runner.run(2);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.value().shards.size(), 1u);
    const auto& shard = result.value().shards[0];
    EXPECT_FALSE(shard.ok);
    EXPECT_EQ(shard.error.code, common::ErrorCode::Timeout);
    EXPECT_EQ(shard.retries, 0) << "timeouts must not be retried";
    EXPECT_EQ(result.value().failed, 1u);
}

TEST(SweepRunner, TransientFailuresRetryThenSkipDeterministically)
{
    auto spec = smallSpec();
    spec.infraFailProb = 0.6;
    spec.maxRetries = 2;
    sweep::SweepRunner a(spec);
    sweep::SweepRunner b(spec);
    auto ra = a.run(1);
    auto rb = b.run(8);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    // At p=0.6 over 16 shards some retries and some exhausted budgets
    // are statistically certain; the exact pattern is seeded.
    EXPECT_GT(ra.value().retriesTotal, 0u);
    EXPECT_GT(ra.value().failed, 0u);
    EXPECT_LT(ra.value().failed, spec.shardCount());
    for (const auto& s : ra.value().shards) {
        if (!s.ok) {
            EXPECT_EQ(s.error.code, common::ErrorCode::Transient);
        }
    }
    // Identical failure/retry pattern regardless of thread count.
    EXPECT_EQ(
        sweep::SweepRunner::merge(spec, ra.value(), "t").toJson(),
        sweep::SweepRunner::merge(spec, rb.value(), "t").toJson());
}

TEST(SweepRunner, ProgressCallbackSeesEveryShardExactlyOnce)
{
    const auto spec = smallSpec();
    sweep::SweepRunner runner(spec);
    std::set<uint64_t> seen;
    runner.onProgress = [&seen](const api::ProgressEvent& ev) {
        // Serialized by the runner's mutex: plain set insert is safe.
        EXPECT_TRUE(seen.insert(ev.index).second);
    };
    auto result = runner.run(4);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(seen.size(), spec.shardCount());
}

// ---------------------------------------------------------------------
// Parallel fault campaign
// ---------------------------------------------------------------------

TEST(CampaignJobs, ReportIsIdenticalAcrossJobCounts)
{
    fault::CampaignSpec spec;
    spec.smt = 1;
    spec.seed = 42;
    spec.injections = 40;
    spec.warmupInstrs = 500;
    spec.measureInstrs = 1500;

    auto cfg = core::power10();
    const auto& profile = workloads::profileByName("mcf");

    fault::CampaignRunner serial(cfg, profile, spec);
    auto a = serial.run();
    ASSERT_TRUE(a.ok()) << a.error().str();

    spec.jobs = 3;
    fault::CampaignRunner parallel(cfg, profile, spec);
    auto b = parallel.run();
    ASSERT_TRUE(b.ok()) << b.error().str();

    ASSERT_EQ(a.value().records.size(), b.value().records.size());
    for (size_t i = 0; i < a.value().records.size(); ++i) {
        const auto& ra = a.value().records[i];
        const auto& rb = b.value().records[i];
        EXPECT_EQ(ra.id, rb.id);
        EXPECT_EQ(ra.component, rb.component);
        EXPECT_EQ(ra.outcome, rb.outcome);
        EXPECT_EQ(ra.retries, rb.retries);
        EXPECT_EQ(ra.skipped, rb.skipped);
    }
    EXPECT_EQ(a.value().total.masked, b.value().total.masked);
    EXPECT_EQ(a.value().total.sdc, b.value().total.sdc);
    EXPECT_EQ(a.value().total.crash, b.value().total.crash);
    EXPECT_EQ(a.value().retriesTotal, b.value().retriesTotal);
    EXPECT_EQ(a.value().skipped, b.value().skipped);
}

TEST(CampaignJobs, ValidateRejectsOutOfRangeJobs)
{
    fault::CampaignSpec spec;
    spec.jobs = 0;
    EXPECT_FALSE(spec.validate().ok());
    spec.jobs = 257;
    EXPECT_FALSE(spec.validate().ok());
    spec.jobs = 8;
    EXPECT_TRUE(spec.validate().ok());
}
