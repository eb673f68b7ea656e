/**
 * @file
 * Google-benchmark microbenchmarks of the library's own hot paths:
 * simulation throughput of the core model, the two power-evaluation
 * paths, and the functional GEMM kernels. These measure the tool, not
 * the paper — they guard the APEX speedup story (per-cycle vs interval
 * evaluation cost) and catch performance regressions in the simulator.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/core.h"
#include "obs/report.h"
#include "mma/gemm.h"
#include "power/apex.h"
#include "power/energy.h"
#include "workloads/spec_profiles.h"
#include "workloads/synthetic.h"

using namespace p10ee;

namespace {

core::RunResult
characterize(bool timings)
{
    static const auto cfg = core::power10();
    const auto& prof = workloads::profileByName("perlbench");
    workloads::SyntheticWorkload src(prof);
    core::CoreModel m(cfg);
    core::RunOptions o;
    o.warmupInstrs = 20000;
    o.measureInstrs = 50000;
    o.collectTimings = timings;
    return m.run({&src}, o);
}

void
BM_CoreSimulationThroughput(benchmark::State& state)
{
    auto cfg = core::power10();
    const auto& prof = workloads::profileByName("perlbench");
    for (auto _ : state) {
        workloads::SyntheticWorkload src(prof);
        core::CoreModel m(cfg);
        core::RunOptions o;
        o.warmupInstrs = 5000;
        o.measureInstrs = static_cast<uint64_t>(state.range(0));
        auto r = m.run({&src}, o);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CoreSimulationThroughput)->Arg(20000)->Arg(80000);

void
BM_PowerEvalCounters(benchmark::State& state)
{
    auto cfg = core::power10();
    power::EnergyModel em(cfg);
    auto run = characterize(false);
    for (auto _ : state) {
        auto b = em.evalCounters(run);
        benchmark::DoNotOptimize(b.totalPj);
    }
}
BENCHMARK(BM_PowerEvalCounters);

void
BM_PowerDetailedPerCycle(benchmark::State& state)
{
    auto cfg = core::power10();
    power::EnergyModel em(cfg);
    auto run = characterize(true);
    for (auto _ : state) {
        auto series = em.perCyclePower(run);
        benchmark::DoNotOptimize(series.data());
    }
    state.SetItemsProcessed(
        state.iterations() * static_cast<int64_t>(characterize(true).cycles));
}
BENCHMARK(BM_PowerDetailedPerCycle);

void
BM_PowerApexIntervals(benchmark::State& state)
{
    auto cfg = core::power10();
    power::EnergyModel em(cfg);
    auto run = characterize(true);
    power::ApexExtractor apex(em, 1000);
    for (auto _ : state) {
        auto series = apex.intervalPower(run);
        benchmark::DoNotOptimize(series.data());
    }
}
BENCHMARK(BM_PowerApexIntervals);

void
BM_DgemmMmaFunctional(benchmark::State& state)
{
    int d = static_cast<int>(state.range(0));
    std::vector<double> a(static_cast<size_t>(d) * d, 1.0);
    std::vector<double> b(static_cast<size_t>(d) * d, 1.0);
    std::vector<double> c(static_cast<size_t>(d) * d, 0.0);
    for (auto _ : state) {
        mma::dgemmMma(a.data(), b.data(), c.data(), {d, d, d});
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * d * d * d);
}
BENCHMARK(BM_DgemmMmaFunctional)->Arg(32)->Arg(64);

void
BM_SyntheticGeneration(benchmark::State& state)
{
    const auto& prof = workloads::profileByName("gcc");
    workloads::SyntheticWorkload src(prof);
    for (auto _ : state) {
        auto in = src.next();
        benchmark::DoNotOptimize(in.pc);
    }
}
BENCHMARK(BM_SyntheticGeneration);

/**
 * ConsoleReporter that additionally captures each run's adjusted real
 * time, so the shared JSON report can carry the numbers google-benchmark
 * prints.
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    std::vector<std::pair<std::string, double>> results;

    void
    ReportRuns(const std::vector<Run>& runs) override
    {
        for (const auto& r : runs)
            if (!r.error_occurred)
                results.emplace_back(r.benchmark_name(),
                                     r.GetAdjustedRealTime());
        ConsoleReporter::ReportRuns(runs);
    }
};

} // namespace

int
main(int argc, char** argv)
{
    // The shared bench flags (--out and, ignored here, --instrs /
    // --warmup — iteration counts are google-benchmark's business) are
    // stripped before benchmark::Initialize sees the argv.
    std::string jsonPath;
    std::vector<char*> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--out" && i + 1 < argc)
            jsonPath = argv[++i];
        else if ((a == "--instrs" || a == "--warmup") && i + 1 < argc)
            ++i;
        else
            args.push_back(argv[i]);
    }
    int bargc = static_cast<int>(args.size());
    benchmark::Initialize(&bargc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bargc, args.data()))
        return 1;

    auto start = std::chrono::steady_clock::now();
    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (jsonPath.empty())
        return 0;
    obs::JsonReport report;
    report.meta().tool = "bench_micro_kernels";
    report.meta().git = obs::gitDescribe();
    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    report.meta().wallSeconds = wall.count();
    for (const auto& [name, seconds] : reporter.results)
        report.addScalar(name, seconds);
    auto st = report.writeTo(jsonPath);
    if (!st.ok()) {
        std::fprintf(stderr, "bench_micro_kernels: %s\n",
                     st.error().message.c_str());
        return 1;
    }
    return 0;
}
