/**
 * @file
 * Sweep execution and deterministic merge.
 *
 * The SweepRunner executes every shard of an expanded SweepSpec as a
 * fully isolated simulation — its own CoreModel, its own
 * TimeSeriesRecorder (created on the worker thread; the recorder's
 * single-owner contract enforces the isolation), its own RNG streams
 * derived from (spec seed, shard index) — on a work-stealing
 * ThreadPool. Shards never share mutable state, so the thread count is
 * purely a throughput knob.
 *
 * Failure semantics per shard: a run that exceeds the spec's cycle
 * budget is recorded as a timeout; a transient infrastructure failure
 * is retried up to max_retries with deterministic exponential backoff
 * (the generator-draw-burning idiom fault::CampaignRunner uses);
 * anything still failing is skipped-and-recorded. One bad shard never
 * kills a sweep.
 *
 * Determinism contract: merge() produces a p10ee-report/1 document that
 * is a pure function of the spec. Results are stored by shard index and
 * folded in index order, every number in the report derives from
 * simulation state (never from the host clock — meta wall_s and
 * host_mips are fixed at zero in merged reports; real timing goes to
 * stderr in the CLI), so the merged JSON is byte-identical across
 * --jobs values and scheduling orders. The determinism test diffs the
 * whole file.
 */

#ifndef P10EE_SWEEP_RUNNER_H
#define P10EE_SWEEP_RUNNER_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "api/types.h"
#include "common/error.h"
#include "obs/report.h"
#include "sweep/spec.h"

namespace p10ee::sweep {

/**
 * Outcome of one shard. The struct itself is public API now (the
 * daemon returns it, the cache persists it, the runner folds it), so
 * it lives in api/types.h; this alias keeps the sweep-layer spelling.
 */
using ShardResult = api::ShardResult;

class ShardCache;

/** All shard outcomes plus fold-level aggregates, in shard-index order. */
struct SweepResult
{
    std::vector<ShardResult> shards;
    uint64_t okCount = 0;
    uint64_t failed = 0;
    uint64_t retriesTotal = 0;
    /** Simulated instructions (warmup + measured) across ok shards —
        counted identically for cached and simulated shards, so the
        merged report's meta is cache-independent. */
    uint64_t simInstrs = 0;

    /** Provenance split (cached + simulated == shards.size();
        cancelled shards count as simulated — they took the simulate
        path, just doing zero work). */
    uint64_t cachedShards = 0;
    uint64_t simulatedShards = 0;

    /** Shards recorded as cancelled (subset of failed). */
    uint64_t cancelledShards = 0;

    /** Geometric-mean IPC over ok shards (0 when none). */
    double geoMeanIpc() const;

    /** Arithmetic-mean power over ok shards (0 when none). */
    double meanPowerW() const;
};

/** Executes a SweepSpec's shards in parallel and merges the results. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepSpec spec) : spec_(std::move(spec)) {}

    /**
     * Called after each shard finishes, from worker threads but
     * serialized under a mutex — the same api::ProgressEvent signature
     * the fault campaign and the daemon's streamed progress events
     * use. Completion order is scheduling-dependent — anything
     * deterministic must come from the returned SweepResult, not from
     * this stream.
     */
    api::ProgressFn onProgress;

    /**
     * Cooperative cancellation: when non-null and it flips true,
     * not-yet-started shards are recorded as `cancelled` failures
     * without simulating (already-running shards finish). A cancelled
     * sweep still returns a complete, index-ordered SweepResult, but
     * its merged report is NOT the spec's canonical one — callers must
     * treat result.cancelledShards > 0 as "do not publish".
     */
    const std::atomic<bool>* cancel = nullptr;

    /**
     * When non-empty, shard results are memoized in this directory
     * (see sweep/cache.h): already-cached shards replay instead of
     * simulating, and freshly simulated shards are inserted. The
     * merged report is byte-identical either way; only
     * SweepResult::cachedShards / simulatedShards and stderr
     * provenance differ. Incompatible with spec.shardReportsDir
     * (cached shards cannot reproduce per-shard report files) —
     * combining them is a pre-flight error.
     */
    std::string cacheDir;

    /**
     * Validate, expand, and run every shard on @p jobs pool threads.
     * Returns the results in shard-index order regardless of
     * completion order. One source per distinct file-backed workload
     * (a trace) is held for the whole run, so every shard replays the
     * container the run holds instead of reloading the file. Errors
     * are pre-flight only (invalid spec, unknown names, unwritable
     * shard-report directory); shard failures are recorded in the
     * result instead.
     */
    common::Expected<SweepResult> run(int jobs);

    /** The spec this runner executes. */
    const SweepSpec& spec() const { return spec_; }

    /**
     * Index-ordered fold of @p results (one per entry of @p shards, the
     * expansion of @p spec) into a SweepResult: retries, cache
     * provenance, cancellations, ok/failed counts and simulated
     * instructions. Every executor — the local pool here, a fleet of
     * remote workers — folds through this one function, so the
     * aggregates cannot depend on where a shard ran.
     */
    static SweepResult fold(const SweepSpec& spec,
                            const std::vector<ShardSpec>& shards,
                            std::vector<ShardResult> results);

    /**
     * Fold @p result into one deterministic p10ee-report/1 document
     * (see the determinism contract above). @p tool names the emitting
     * binary in the report meta.
     */
    static obs::JsonReport merge(const SweepSpec& spec,
                                 const SweepResult& result,
                                 const std::string& tool);

    /**
     * Cache-provenance sidecar report (sweep.shards / sweep.cached /
     * sweep.simulated). Deliberately separate from merge(): provenance
     * depends on cache warmth, so folding it into the merged report
     * would break the byte-identity contract.
     */
    static obs::JsonReport cacheStats(const SweepResult& result,
                                      const std::string& tool);

    /**
     * Run one shard in isolation. Public because remote execution
     * (daemon shard jobs) runs single shards outside the pool; the
     * result is a pure function of (spec, shard), so where it runs
     * cannot matter.
     */
    ShardResult runShard(const ShardSpec& shard) const;

    /**
     * One shard through the cache: a hit replays the cached result
     * (fromCache set), a miss runs runShard() and inserts its result,
     * best-effort. @p cache may be null (caching off). The local pool
     * and the fleet's in-process fallback both execute shards through
     * this, so their cache discipline cannot drift apart.
     */
    ShardResult runCached(const ShardSpec& shard,
                          const ShardCache* cache) const;

  private:
    SweepSpec spec_;
};

} // namespace p10ee::sweep

#endif // P10EE_SWEEP_RUNNER_H
