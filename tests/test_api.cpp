/**
 * @file
 * Tests of the `p10ee::api` layer: the shared ArgParser flag table and
 * the Service facade's contracts — structured validation, entry-path
 * determinism (merged reports byte-identical at any --jobs and across
 * cache warmth), and cache reuse through the facade.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "api/args.h"
#include "api/service.h"
#include "common/error.h"
#include "sweep/spec.h"

using namespace p10ee;

namespace {

/** argv builder: keeps the strings alive for the parse call. */
struct Argv
{
    explicit Argv(std::vector<std::string> args)
        : strings(std::move(args))
    {
        ptrs.push_back(const_cast<char*>("tool"));
        for (auto& s : strings)
            ptrs.push_back(s.data());
    }
    int argc() const { return static_cast<int>(ptrs.size()); }
    char** argv() { return ptrs.data(); }

    std::vector<std::string> strings;
    std::vector<char*> ptrs;
};

sweep::SweepSpec
smallSpec()
{
    sweep::SweepSpec spec;
    spec.configs = {"power10"};
    spec.workloads = {"perlbench", "xz"};
    spec.smt = {1, 2};
    spec.seeds = 1;
    spec.instrs = 2000;
    spec.warmup = 500;
    return spec;
}

std::string
freshDir(const std::string& stem)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / stem).string();
    std::filesystem::remove_all(dir);
    return dir;
}

// --- ArgParser ---

TEST(ArgParser, ParsesEveryKindAndAlias)
{
    std::string out;
    uint64_t seed = 0;
    int jobs = 1;
    bool csv = false;
    api::ArgParser p("t", "test tool");
    api::stdflags::out(p, &out);
    api::stdflags::seed(p, &seed);
    api::stdflags::jobs(p, &jobs);
    p.boolean("--csv", &csv, "csv output");

    Argv a({"--out", "r.json", "--seed", "7", "--jobs", "3", "--csv"});
    auto st = p.parse(a.argc(), a.argv());
    ASSERT_TRUE(st.ok()) << st.error().str();
    EXPECT_EQ(out, "r.json");
    EXPECT_EQ(seed, 7u);
    EXPECT_EQ(jobs, 3);
    EXPECT_TRUE(csv);
    EXPECT_FALSE(p.helpRequested());
}

TEST(ArgParser, RetiredJsonSpellingIsGone)
{
    // Retired spellings are plain unknown options: the report output
    // has one name (--out), and the fidelity flag is gone with the
    // fidelity mode.
    std::string out;
    api::ArgParser p("t", "");
    api::stdflags::out(p, &out);
    for (const char* flag : {"--json", "--stats-json", "--mode"}) {
        Argv a({flag, "r.json"});
        auto st = p.parse(a.argc(), a.argv());
        ASSERT_FALSE(st.ok()) << flag;
        EXPECT_EQ(st.error().code, common::ErrorCode::InvalidArgument)
            << flag;
        EXPECT_NE(st.error().message.find("'" + std::string(flag) + "'"),
                  std::string::npos)
            << st.error().message;
    }
    EXPECT_TRUE(out.empty());
}

TEST(ArgParser, StructuredErrorsNeverExit)
{
    int jobs = 1;
    api::ArgParser p("t", "");
    api::stdflags::jobs(p, &jobs);

    {
        Argv a({"--bogus"});
        auto st = p.parse(a.argc(), a.argv());
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.error().code, common::ErrorCode::InvalidArgument);
    }
    {
        Argv a({"--jobs"});
        auto st = p.parse(a.argc(), a.argv());
        ASSERT_FALSE(st.ok());
        EXPECT_NE(st.error().message.find("needs a value"),
                  std::string::npos);
    }
    {
        Argv a({"--jobs", "0"});
        EXPECT_FALSE(p.parse(a.argc(), a.argv()).ok());
    }
    {
        Argv a({"--jobs", "257"});
        EXPECT_FALSE(p.parse(a.argc(), a.argv()).ok());
    }
    {
        Argv a({"--jobs", "two"});
        EXPECT_FALSE(p.parse(a.argc(), a.argv()).ok());
    }
    {
        Argv a({"positional"});
        EXPECT_FALSE(p.parse(a.argc(), a.argv()).ok());
    }
}

TEST(ArgParser, HelpIsGeneratedFromTheFlagTable)
{
    std::string out;
    uint64_t instrs = 0;
    api::ArgParser p("mytool", "does things");
    api::stdflags::out(p, &out);
    api::stdflags::instrs(p, &instrs);

    Argv a({"--help"});
    auto st = p.parse(a.argc(), a.argv());
    ASSERT_TRUE(st.ok());
    EXPECT_TRUE(p.helpRequested());

    const std::string help = p.help();
    EXPECT_NE(help.find("mytool"), std::string::npos);
    EXPECT_NE(help.find("--out"), std::string::npos);
    EXPECT_NE(help.find("--instrs"), std::string::npos);
    EXPECT_NE(help.find("--out <path>"), std::string::npos);
    EXPECT_EQ(help.find("<<"), std::string::npos);
    EXPECT_EQ(help.find("--stats-json"), std::string::npos);
    EXPECT_EQ(help.find("--json "), std::string::npos);
}

TEST(ArgParser, WasSetDistinguishesDefaultFromExplicit)
{
    uint64_t warmup = 999;
    bool wasSet = false;
    api::ArgParser p("t", "");
    api::stdflags::warmup(p, &warmup, &wasSet);
    {
        Argv a({});
        ASSERT_TRUE(p.parse(a.argc(), a.argv()).ok());
        EXPECT_FALSE(wasSet);
        EXPECT_EQ(warmup, 999u);
    }
    {
        Argv a({"--warmup", "0"});
        ASSERT_TRUE(p.parse(a.argc(), a.argv()).ok());
        EXPECT_TRUE(wasSet);
        EXPECT_EQ(warmup, 0u);
    }
}

TEST(ArgParserDeathTest, BracketedMetavarAsserts)
{
    // help() brackets the metavar itself, so a bracketed one would
    // print as "<<path>>": registering it is a programming error.
    std::string v;
    api::ArgParser p("t", "");
    EXPECT_DEATH(p.str("--in", &v, "<path>", "input"), "bare metavar");
    EXPECT_DEATH(p.str("--in", &v, "path>", "input"), "bare metavar");
}

// --- RunRequest validation / runOne ---

TEST(RunRequest, ValidateRejectsBadFields)
{
    api::RunRequest req;
    req.smt = 3;
    EXPECT_FALSE(req.validate().ok());

    req = api::RunRequest{};
    req.instrs = 0;
    EXPECT_FALSE(req.validate().ok());

    req = api::RunRequest{};
    req.ckptSave = "a";
    req.ckptLoad = "b";
    auto st = req.validate();
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.error().message.find("mutually exclusive"),
              std::string::npos);
}

TEST(Service, RunOneResolvesNamesAndRuns)
{
    api::Service service;
    api::RunRequest req;
    req.workload = "xz";
    req.smt = 2;
    req.instrs = 2000;
    req.warmup = 500;
    auto outcome = service.runOne(req);
    ASSERT_TRUE(outcome.ok()) << outcome.error().str();
    EXPECT_GT(outcome.value().ipc(), 0.0);
    EXPECT_GT(outcome.value().powerW(), 0.0);
    EXPECT_EQ(outcome.value().warmupSimulated, 500u * 2u);
}

TEST(Service, RunOneStructuredErrors)
{
    api::Service service;
    api::RunRequest req;
    req.instrs = 1000;
    req.warmup = 100;

    req.workload = "no-such-workload";
    auto r1 = service.runOne(req);
    ASSERT_FALSE(r1.ok());
    EXPECT_EQ(r1.error().code, common::ErrorCode::NotFound);

    req.workload = "xz";
    req.config = "power11";
    auto r2 = service.runOne(req);
    ASSERT_FALSE(r2.ok());
    EXPECT_EQ(r2.error().code, common::ErrorCode::NotFound);

    req.config = "ablate:no_such_group";
    auto r3 = service.runOne(req);
    ASSERT_FALSE(r3.ok());
    EXPECT_EQ(r3.error().code, common::ErrorCode::NotFound);
}

TEST(Service, RunOneAblateSpellingMatchesSweepLayer)
{
    api::Service service;
    api::RunRequest req;
    req.config = "ablate:l2_cache";
    req.workload = "perlbench";
    req.instrs = 1500;
    req.warmup = 300;
    auto outcome = service.runOne(req);
    ASSERT_TRUE(outcome.ok()) << outcome.error().str();
    EXPECT_NE(outcome.value().config.name, "power10");
}

TEST(Service, RunOneTimeoutIsStructured)
{
    api::Service service;
    api::RunRequest req;
    req.workload = "perlbench";
    req.instrs = 100000;
    req.warmup = 0;
    req.maxCycles = 50; // far too tight
    auto outcome = service.runOne(req);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, common::ErrorCode::Timeout);
}

TEST(Service, RunReportIsDeterministic)
{
    api::Service service;
    api::RunRequest req;
    req.workload = "xz";
    req.instrs = 2000;
    req.warmup = 400;
    auto a = service.runOne(req);
    auto b = service.runOne(req);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(api::Service::runReport(req, a.value()).toJson(),
              api::Service::runReport(req, b.value()).toJson());
}

// --- Sweeps through the facade ---

TEST(Service, MergedReportByteIdenticalAcrossJobs)
{
    api::Service service;
    const sweep::SweepSpec spec = smallSpec();

    api::SweepOptions serial;
    serial.jobs = 1;
    auto r1 = service.runSweep(spec, serial);
    ASSERT_TRUE(r1.ok()) << r1.error().str();

    api::SweepOptions parallel;
    parallel.jobs = 4;
    auto r4 = service.runSweep(spec, parallel);
    ASSERT_TRUE(r4.ok()) << r4.error().str();

    EXPECT_EQ(
        api::Service::mergedReport(spec, r1.value()).toJson(),
        api::Service::mergedReport(spec, r4.value()).toJson());
}

TEST(Service, SharedCacheMakesWarmRequestsSimulateNothing)
{
    const std::string dir = freshDir("p10ee_api_cache_test");
    api::Service service(api::Service::Options{dir});
    const sweep::SweepSpec spec = smallSpec();

    api::SweepOptions opts;
    opts.jobs = 2;
    auto cold = service.runSweep(spec, opts);
    ASSERT_TRUE(cold.ok()) << cold.error().str();
    EXPECT_EQ(cold.value().cachedShards, 0u);
    EXPECT_EQ(cold.value().simulatedShards, spec.shardCount());

    auto warm = service.runSweep(spec, opts);
    ASSERT_TRUE(warm.ok()) << warm.error().str();
    EXPECT_EQ(warm.value().simulatedShards, 0u);
    EXPECT_EQ(warm.value().cachedShards, spec.shardCount());

    // Warmth must not leak into the canonical artifact.
    EXPECT_EQ(
        api::Service::mergedReport(spec, cold.value()).toJson(),
        api::Service::mergedReport(spec, warm.value()).toJson());

    std::filesystem::remove_all(dir);
}

TEST(Service, ProgressEventsCoverEveryShard)
{
    api::Service service;
    const sweep::SweepSpec spec = smallSpec();
    std::vector<uint64_t> indices;
    api::SweepOptions opts;
    opts.jobs = 2;
    opts.onProgress = [&indices](const api::ProgressEvent& ev) {
        indices.push_back(ev.index);
        EXPECT_EQ(ev.total, 4u);
        EXPECT_FALSE(ev.key.empty());
        EXPECT_EQ(ev.status, "ok");
    };
    auto r = service.runSweep(spec, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(indices.size(), spec.shardCount());
}

TEST(Service, CancelRecordsRemainingShardsAsCancelled)
{
    api::Service service;
    sweep::SweepSpec spec = smallSpec();
    std::atomic<bool> cancel{true}; // pre-cancelled: nothing simulates
    api::SweepOptions opts;
    opts.jobs = 1;
    opts.cancel = &cancel;
    auto r = service.runSweep(spec, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().cancelledShards, spec.shardCount());
    EXPECT_EQ(r.value().okCount, 0u);
    for (const auto& s : r.value().shards)
        EXPECT_EQ(s.error.code, common::ErrorCode::Cancelled);
}

TEST(Service, MaxCyclesOverrideOnlyTightens)
{
    api::Service service;
    sweep::SweepSpec spec = smallSpec();
    spec.workloads = {"perlbench"};
    spec.smt = {1};

    api::SweepOptions opts;
    opts.jobs = 1;
    opts.maxCyclesOverride = 10; // impossible budget
    auto r = service.runSweep(spec, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().okCount, 0u);
    for (const auto& s : r.value().shards)
        EXPECT_EQ(s.error.code, common::ErrorCode::Timeout);
}

// --- Structured validation ---

TEST(RunRequest, ValidationErrorsNameTheFirstBadField)
{
    auto fieldOf = [](const api::RunRequest& req) {
        auto st = req.validate();
        EXPECT_FALSE(st.ok());
        return st.ok() ? std::string() : st.error().field;
    };
    api::RunRequest req;
    req.smt = 3;
    EXPECT_EQ(fieldOf(req), "smt");

    req = api::RunRequest{};
    req.instrs = 0;
    EXPECT_EQ(fieldOf(req), "instrs");

    req = api::RunRequest{};
    req.cores = 0;
    req.instrs = 0;
    EXPECT_EQ(fieldOf(req), "cores");

    // The field rides on the rendered message verbatim — the daemon's
    // NDJSON error line and both CLIs' exit-2 text print this string.
    req = api::RunRequest{};
    req.smt = 5;
    auto st = req.validate();
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.error().str().find("(field: smt)"),
              std::string::npos);
}

} // namespace
