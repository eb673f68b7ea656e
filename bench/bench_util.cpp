#include "bench_util.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "api/args.h"
#include "sweep/pool.h"

namespace p10ee::bench {

namespace {

/** Instructions simulated since benchInit (all runs, all threads).
    Atomic: grid points account concurrently under --jobs. */
std::atomic<uint64_t> g_simInstrs{0};

/** Measured-interval accounting for host-MIPS: instructions and host
    nanoseconds spent inside measure() windows only (no warmup). */
std::atomic<uint64_t> g_measuredInstrs{0};
std::atomic<uint64_t> g_measuredNanos{0};

} // namespace

void
accountSimInstrs(uint64_t n)
{
    g_simInstrs.fetch_add(n, std::memory_order_relaxed);
}

void
accountMeasured(uint64_t n, double seconds)
{
    g_measuredInstrs.fetch_add(n, std::memory_order_relaxed);
    g_measuredNanos.fetch_add(
        seconds > 0.0 ? static_cast<uint64_t>(seconds * 1e9) : 0,
        std::memory_order_relaxed);
}

common::Expected<BenchContext>
tryBenchInit(int argc, char** argv, const std::string& tool)
{
    BenchContext ctx;
    ctx.report.meta().tool = tool;
    ctx.report.meta().git = obs::gitDescribe();

    api::ArgParser parser(
        tool, "Regenerate one paper figure/table and optionally emit "
              "the machine-readable report.");
    api::stdflags::out(parser, &ctx.jsonPath);
    api::stdflags::instrs(parser, &ctx.instrsOverride);
    api::stdflags::warmup(parser, &ctx.warmupOverride, &ctx.warmupSet);
    api::stdflags::jobs(parser, &ctx.jobs);
    if (auto st = parser.parse(argc, argv); !st)
        return st.error();
    ctx.helpText = parser.help();
    if (parser.helpRequested()) {
        ctx.helpRequested = true;
        return ctx;
    }

    g_simInstrs.store(0, std::memory_order_relaxed);
    g_measuredInstrs.store(0, std::memory_order_relaxed);
    g_measuredNanos.store(0, std::memory_order_relaxed);
    ctx.start = std::chrono::steady_clock::now();
    return ctx;
}

BenchContext
benchInit(int argc, char** argv, const std::string& tool)
{
    auto ctxOr = tryBenchInit(argc, argv, tool);
    if (!ctxOr) {
        std::fprintf(stderr, "%s: %s\n", tool.c_str(),
                     ctxOr.error().message.c_str());
        std::exit(2);
    }
    if (ctxOr.value().helpRequested) {
        std::fputs(ctxOr.value().helpText.c_str(), stdout);
        std::exit(0);
    }
    return std::move(ctxOr).value();
}

void
runGrid(const BenchContext& ctx, size_t n,
        const std::function<void(size_t)>& fn)
{
    if (ctx.jobs <= 1 || n <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    const int threads =
        static_cast<int>(std::min<size_t>(
            static_cast<size_t>(ctx.jobs), n));
    sweep::ThreadPool pool(threads);
    pool.parallelFor(n, [&fn](uint64_t i) {
        fn(static_cast<size_t>(i));
    });
}

int
benchFinish(BenchContext& ctx)
{
    auto& meta = ctx.report.meta();
    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - ctx.start;
    meta.wallSeconds = wall.count();
    const uint64_t simInstrs =
        g_simInstrs.load(std::memory_order_relaxed);
    meta.simInstrs = simInstrs;
    // host_mips rates only the measured windows: measured instructions
    // over the host time spent inside measure(). The previous version
    // divided ALL accounted instructions (warmup included) by total
    // bench wall time — table setup and warmup diluted the figure.
    const uint64_t mInstrs =
        g_measuredInstrs.load(std::memory_order_relaxed);
    const double mSeconds =
        static_cast<double>(
            g_measuredNanos.load(std::memory_order_relaxed)) /
        1e9;
    meta.hostMips = mSeconds > 0.0
                        ? static_cast<double>(mInstrs) / mSeconds / 1e6
                        : 0.0;
    if (ctx.jsonPath.empty())
        return 0;
    auto st = ctx.report.writeTo(ctx.jsonPath);
    if (!st.ok()) {
        std::fprintf(stderr, "%s: %s\n", meta.tool.c_str(),
                     st.error().message.c_str());
        return 1;
    }
    return 0;
}

double
SuiteResult::geoMeanIpc() const
{
    double s = 0.0;
    for (const auto& e : entries)
        s += std::log(e.run.ipc());
    return entries.empty() ? 0.0
                           : std::exp(s / static_cast<double>(
                                              entries.size()));
}

double
SuiteResult::meanPowerPj() const
{
    double s = 0.0;
    for (const auto& e : entries)
        s += e.power.totalPj;
    return entries.empty() ? 0.0
                           : s / static_cast<double>(entries.size());
}

double
SuiteResult::geoMeanEfficiency() const
{
    double s = 0.0;
    for (const auto& e : entries)
        s += std::log(e.run.ipc() / e.power.totalPj);
    return entries.empty() ? 0.0
                           : std::exp(s / static_cast<double>(
                                              entries.size()));
}

SuiteEntry
runOne(const core::CoreConfig& cfg,
       const workloads::WorkloadProfile& profile, int smt,
       uint64_t measureInstrs, uint64_t warmupInstrs)
{
    std::vector<std::unique_ptr<workloads::SyntheticWorkload>> sources;
    std::vector<workloads::InstrSource*> ptrs;
    for (int t = 0; t < smt; ++t) {
        sources.push_back(
            std::make_unique<workloads::SyntheticWorkload>(profile, t));
        ptrs.push_back(sources.back().get());
    }
    core::CoreModel model(cfg);
    core::RunOptions opts;
    // Warmup scales with thread count: SMT copies multiply the footprint
    // that caches and predictors must absorb before steady state.
    opts.warmupInstrs = warmupInstrs * static_cast<uint64_t>(smt);
    opts.measureInstrs = measureInstrs;
    model.beginRun(ptrs);
    model.advance(opts.warmupInstrs);

    SuiteEntry entry;
    entry.workload = profile.name;
    const auto mStart = std::chrono::steady_clock::now();
    entry.run = model.measure(opts);
    const std::chrono::duration<double> mWall =
        std::chrono::steady_clock::now() - mStart;
    accountSimInstrs(opts.warmupInstrs + entry.run.instrs);
    accountMeasured(entry.run.instrs, mWall.count());
    power::EnergyModel energy(cfg);
    entry.power = energy.evalCounters(entry.run);
    return entry;
}

SuiteEntry
runStream(const core::CoreConfig& cfg, const std::string& name,
          const std::vector<isa::TraceInstr>& loop,
          uint64_t measureInstrs, bool collectTimings)
{
    workloads::ReplaySource src(name, loop);
    core::CoreModel model(cfg);
    core::RunOptions opts;
    opts.warmupInstrs = 20000;
    opts.measureInstrs = measureInstrs;
    opts.collectTimings = collectTimings;
    SuiteEntry entry;
    entry.workload = name;
    // Split run() into its warmup and measured halves so host-MIPS can
    // time the measured window alone (identical simulation either way).
    model.beginRun({&src});
    model.advance(opts.warmupInstrs);
    const auto mStart = std::chrono::steady_clock::now();
    entry.run = model.measure(opts);
    const std::chrono::duration<double> mWall =
        std::chrono::steady_clock::now() - mStart;
    accountSimInstrs(opts.warmupInstrs + entry.run.instrs);
    accountMeasured(entry.run.instrs, mWall.count());
    power::EnergyModel energy(cfg);
    entry.power = energy.evalCounters(entry.run);
    return entry;
}

SuiteResult
runSuite(const core::CoreConfig& cfg,
         const std::vector<workloads::WorkloadProfile>& profiles,
         int smt, uint64_t measureInstrs, uint64_t warmupInstrs)
{
    SuiteResult out;
    for (const auto& p : profiles)
        out.entries.push_back(
            runOne(cfg, p, smt, measureInstrs, warmupInstrs));
    return out;
}

} // namespace p10ee::bench
