/**
 * @file
 * Shared helpers for the figure/table bench binaries.
 *
 * Every bench regenerates one of the paper's tables or figures; these
 * helpers run a workload suite on a core configuration and aggregate
 * results the way the paper reports them (averages across SPECint, ST
 * and SMT8 modes, perf and core power).
 */

#ifndef P10EE_BENCH_BENCH_UTIL_H
#define P10EE_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/core.h"
#include "obs/report.h"
#include "power/energy.h"
#include "workloads/spec_profiles.h"
#include "workloads/synthetic.h"

namespace p10ee::bench {

/**
 * Shared bench-binary harness: common flag parsing plus the
 * machine-readable report every bench emits.
 *
 * Flags understood by every bench (all optional; parsed by the shared
 * api::ArgParser table, so spellings and --help match the CLIs):
 *   --out <path>    write a "p10ee-report/1" JSON report after the run
 *   --instrs <n>    override the bench's measurement window
 *   --warmup <n>    override the bench's warmup window
 *   --jobs <n>      worker threads for runGrid-parallel benches
 *   --ckpt-dir <d>  memoize warmup snapshots: runOne checkpoints the
 *                   machine after warmup into <d> (content-addressed
 *                   on config + profile + smt + warmup) and later
 *                   invocations restore instead of re-simulating the
 *                   warmup; measured results are bit-identical either
 *                   way (meta sim_instrs/host_mips count only what was
 *                   actually simulated)
 *
 * Typical use:
 *   auto ctx = bench::benchInit(argc, argv, "bench_table1");
 *   const uint64_t instrs = ctx.instrsOr(150000);
 *   ...
 *   ctx.report.addTable(table);
 *   return bench::benchFinish(ctx);
 */
struct BenchContext
{
    obs::JsonReport report;
    std::string jsonPath;        ///< empty = report not requested
    uint64_t instrsOverride = 0; ///< 0 = use the bench default
    uint64_t warmupOverride = 0;
    bool warmupSet = false;
    int jobs = 1; ///< worker threads for runGrid (1 = serial)
    std::string ckptDir; ///< empty = warmup snapshots not requested
    bool helpRequested = false; ///< --help seen (tryBenchInit callers)
    std::string helpText;       ///< generated from the flag table
    std::chrono::steady_clock::time_point start;

    /** The measurement window: the --instrs override or @p def. */
    uint64_t
    instrsOr(uint64_t def) const
    {
        return instrsOverride ? instrsOverride : def;
    }

    /** The warmup window: the --warmup override or @p def. */
    uint64_t
    warmupOr(uint64_t def) const
    {
        return warmupSet ? warmupOverride : def;
    }
};

/**
 * Parse the shared bench flags and start the wall clock — the
 * Expected-propagating core. Unknown flags, malformed values and an
 * uncreatable --ckpt-dir come back as structured Errors (never an exit
 * or a throw), so a serving process can embed a bench run the same way
 * the facade embeds everything else. `--help` sets ctx.helpRequested
 * with the generated text in ctx.helpText.
 */
common::Expected<BenchContext> tryBenchInit(int argc, char** argv,
                                            const std::string& tool);

/**
 * tryBenchInit for the standalone bench binaries: a parse error prints
 * the diagnostic and exits 2 (the CLI contract), --help prints and
 * exits 0. Only this boundary wrapper may exit; benches keep no flags
 * of their own.
 */
BenchContext benchInit(int argc, char** argv, const std::string& tool);

/**
 * Finish the run: stamp wall-clock, total simulated instructions and
 * host sim-speed into the report meta and, when --out was given,
 * write the report. Returns the process exit code (non-zero when the
 * report could not be written).
 *
 * meta.host_mips is measured-interval-only: instructions from
 * accountMeasured() over the host seconds spent inside those measured
 * windows. Warmup instructions (and warmup wall time) count toward
 * meta.sim_instrs/meta.wall_seconds provenance but never dilute the
 * MIPS figure — the old combined accounting understated the
 * simulator's steady-state speed on warmup-heavy benches.
 */
int benchFinish(BenchContext& ctx);

/** Add @p n simulated instructions to the sim_instrs provenance.
    Thread-safe: grid points account concurrently under --jobs. */
void accountSimInstrs(uint64_t n);

/** Add one measured-interval sample to host-MIPS accounting: @p n
    instructions simulated in @p seconds of host wall time, excluding
    warmup. Thread-safe like accountSimInstrs(). */
void accountMeasured(uint64_t n, double seconds);

/**
 * Run fn(0) .. fn(n-1), on a sweep::ThreadPool of min(ctx.jobs, n)
 * workers when --jobs asks for parallelism, serially (and
 * pool-free) otherwise. Grid points must be independent and write
 * only to index-keyed slots — every figure bench's sweep already has
 * that shape, which is what makes its output identical at any --jobs
 * value.
 */
void runGrid(const BenchContext& ctx, size_t n,
             const std::function<void(size_t)>& fn);

/** One workload's outcome on one configuration. */
struct SuiteEntry
{
    std::string workload;
    core::RunResult run;
    power::PowerBreakdown power;
};

/** Suite outcome: per-workload entries plus suite aggregates. */
struct SuiteResult
{
    std::vector<SuiteEntry> entries;

    /** Geometric-mean IPC across workloads. */
    double geoMeanIpc() const;

    /** Arithmetic-mean core power (pJ/cycle) across workloads. */
    double meanPowerPj() const;

    /** Geometric-mean of perf/W (IPC per pJ/cycle). */
    double geoMeanEfficiency() const;
};

/**
 * Run @p profiles on @p cfg at @p smt threads each (thread t runs the
 * same profile with a shifted seed/footprint) and evaluate core power.
 *
 * @param measureInstrs measurement window per workload (total across
 *        threads).
 */
SuiteResult runSuite(const core::CoreConfig& cfg,
                     const std::vector<workloads::WorkloadProfile>&
                         profiles,
                     int smt, uint64_t measureInstrs,
                     uint64_t warmupInstrs = 30000);

/** Run a single profile; convenience wrapper over runSuite. */
SuiteEntry runOne(const core::CoreConfig& cfg,
                  const workloads::WorkloadProfile& profile, int smt,
                  uint64_t measureInstrs, uint64_t warmupInstrs = 30000);

/**
 * Run a fixed instruction loop (a GEMM kernel window or Chopstix proxy)
 * on @p cfg, single-thread, optionally collecting the event trace.
 */
SuiteEntry runStream(const core::CoreConfig& cfg, const std::string& name,
                     const std::vector<isa::TraceInstr>& loop,
                     uint64_t measureInstrs, bool collectTimings = false);

} // namespace p10ee::bench

#endif // P10EE_BENCH_BENCH_UTIL_H
