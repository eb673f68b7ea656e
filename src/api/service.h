/**
 * @file
 * `p10ee::api::Service` — the one entry path into the engine.
 *
 * Every consumer used to re-implement its own wiring of config
 * resolution + workload construction + core model + energy evaluation
 * + report assembly: `p10sim_cli`, `p10sweep_cli`, the bench harness
 * and now the `p10d` daemon. This facade is the only place that
 * composes core + workloads + obs + ckpt + sweep, so the offline CLIs,
 * the library and a live service cannot drift apart — a request
 * produces the same bytes no matter which door it came in through.
 *
 * Contracts inherited from below and re-exported here:
 *  - determinism: mergedReport() is a pure function of the spec (tool
 *    name pinned to kSweepReportTool, wall-clock zeroed), so the same
 *    spec yields byte-identical reports from a library call, a
 *    `p10sweep_cli` process, or a `p10d` socket round-trip;
 *  - cache reuse: a Service constructed with a cache directory shares
 *    one ShardCache across every request it serves — a warm request
 *    simulates zero shards;
 *  - recoverability: all failures travel as `common::Expected`; the
 *    facade never exits, throws past its boundary, or aborts a serving
 *    process on a bad request.
 */

#ifndef P10EE_API_SERVICE_H
#define P10EE_API_SERVICE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "api/types.h"
#include "chip/chip.h"
#include "common/error.h"
#include "core/core.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "power/energy.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "workloads/spec_profiles.h"

namespace p10ee::api {

/**
 * Merged sweep reports carry this tool name regardless of entry path:
 * the report is a pure function of the spec, and stamping the emitting
 * binary into it would break byte-identity between the offline CLI and
 * the daemon serving the same spec.
 */
inline constexpr const char* kSweepReportTool = "p10sweep";

/** One single-run request (the `p10sim_cli` shape, service-ready). */
struct RunRequest
{
    /** "power9", "power10", or "ablate:<group>". */
    std::string config = "power10";
    std::string workload = "perlbench";
    int smt = 1;
    /** Chip width. Every width runs through chip::ChipModel; a 1-core
        chip is the bare core (byte-identical to every pre-chip
        release), and >= 2 adds shared-resource contention and the
        chip-scope governor. Every core runs this config/workload/smt;
        thread t of core c draws workload stream c*smt + t. */
    int cores = 1;
    uint64_t instrs = 200000;
    uint64_t warmup = 50000; ///< per thread
    /** 0 = profile default; else splitSeed replica (sweep semantics). */
    uint64_t seed = 0;
    uint64_t maxCycles = 0; ///< cycle budget; 0 = unbounded
    uint64_t sampleInterval = 0;

    // Library-only extras (never on the wire).
    obs::TimeSeriesRecorder* recorder = nullptr; ///< optional telemetry
    bool collectTimings = false;
    std::string ckptSave; ///< snapshot after warmup, then measure
    std::string ckptLoad; ///< restore a warmup snapshot, skip warmup

    /** Structured validation (field ranges, mutually exclusive ckpt
        paths); name resolution happens in runOne(). The returned
        Error's `field` names the first failing request key. */
    common::Status validate() const;
};

/** Outcome of one single run, with the resolved inputs attached. */
struct RunOutcome
{
    /** The measured window as the chip rollup: cycles = chip
        effective cycles, instrs/ops/flops/stats summed over cores
        (at one core, exactly the bare core's window), so scalar
        consumers see chip-scope numbers without caring about width.
        Per-instruction timings come from core 0 (1-core only). */
    core::RunResult run;
    /** Energy breakdown, summed across cores. */
    power::PowerBreakdown power;
    core::CoreConfig config;               ///< resolved machine
    workloads::WorkloadProfile profile;    ///< resolved (seed derived)
    uint64_t warmupSimulated = 0; ///< 0 when restored from checkpoint

    int cores = 1;         ///< mirrors RunRequest::cores
    /** Per-core outcomes + governor rollup, filled at every width
        (core 0's timings are moved into run). Outputs read it only
        for cores >= 2, so 1-core reports keep their pre-chip bytes. */
    chip::ChipResult chip;

    double ipc() const { return run.ipc(); }
    double powerW() const { return power.watts(); }
    double
    ipcPerW() const
    {
        return power.watts() > 0.0 ? run.ipc() / power.watts() : 0.0;
    }
};

/** Per-call options of a sweep submission. */
struct SweepOptions
{
    int jobs = 1;
    ProgressFn onProgress;
    /** Cooperative cancellation: when set and it flips true, remaining
        shards are recorded as `cancelled` without simulating. */
    const std::atomic<bool>* cancel = nullptr;
    /** Request-level cycle budget per shard; tightens (never loosens)
        the spec's own max_cycles. 0 = no override. */
    uint64_t maxCyclesOverride = 0;
};

/**
 * Per-call options of a single-shard execution (the fabric worker
 * path: a `shard` request runs exactly one index of a sweep).
 */
struct ShardOptions
{
    /** Request-level cycle budget; tightens (never loosens) the
        spec's own max_cycles. 0 = no override. */
    uint64_t maxCyclesOverride = 0;
    /**
     * Remote cache tier: given the shard's cache key, return the
     * encoded ShardCache entry bytes or nullopt on miss. Consulted
     * after the local cache; a probe that times out is just a miss —
     * the remote tier can only ever save work, never fail a shard.
     */
    std::function<std::optional<std::vector<uint8_t>>(uint64_t key)>
        remoteLookup;
    /** Best-effort publication of a freshly simulated entry to the
        remote tier (fire-and-forget). */
    std::function<void(uint64_t key, const std::vector<uint8_t>& entry)>
        remoteStore;
};

/** Outcome of one single-shard execution. */
struct ShardOutcome
{
    ShardResult result; ///< fromCache set when any cache tier hit
    /** The encoded ShardCache entry for this result — the exact bytes
        a worker ships in shard_done and a coordinator persists. */
    std::vector<uint8_t> entry;
};

/**
 * The facade. Cheap to construct; holds only the shared-cache
 * configuration. Thread-safe: concurrent runOne()/runSweep() calls
 * share the on-disk ShardCache (whose own contract makes concurrent
 * use safe) and nothing else.
 */
class Service
{
  public:
    struct Options
    {
        /** Shared shard-cache directory ("" = caching off). */
        std::string cacheDir;
    };

    Service() = default;
    explicit Service(Options opts) : opts_(std::move(opts)) {}

    /** Resolve + validate + run one simulation. */
    common::Expected<RunOutcome> runOne(const RunRequest& req) const;

    /** Expand + execute a sweep (shared cache, progress events). */
    common::Expected<sweep::SweepResult> runSweep(
        const sweep::SweepSpec& spec, const SweepOptions& opts) const;

    /**
     * Run ONE shard of @p spec by expansion index: local cache, then
     * the remote tier (when wired), then simulation. The result is a
     * pure function of (spec, index) — identical to what the same
     * shard produces inside runSweep() — which is what lets a fleet
     * scatter shards across workers and still merge a byte-identical
     * report. Errors are pre-flight only (bad spec, index out of
     * range); a shard that deterministically fails (timeout, exhausted
     * retries) is an ok ShardOutcome carrying the failure.
     */
    common::Expected<ShardOutcome> runShard(
        const sweep::SweepSpec& spec, uint64_t index,
        const ShardOptions& opts) const;

    /**
     * The canonical merged sweep report: byte-identical across every
     * entry path for the same spec (tool pinned, host timing zeroed).
     */
    static obs::JsonReport mergedReport(const sweep::SweepSpec& spec,
                                        const sweep::SweepResult& result);

    /** Cache-provenance sidecar (cached + simulated == shards). */
    static obs::JsonReport cacheStatsReport(
        const sweep::SweepResult& result);

    /**
     * Deterministic single-run report (scalars only, zeroed host
     * timing): what the daemon returns for a `run` request and the
     * base the CLI builds its richer report on.
     */
    static obs::JsonReport runReport(const RunRequest& req,
                                     const RunOutcome& outcome);

    const Options& options() const { return opts_; }

  private:
    Options opts_;
};

} // namespace p10ee::api

#endif // P10EE_API_SERVICE_H
