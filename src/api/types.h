/**
 * @file
 * Public value types of the `p10ee::api` facade.
 *
 * These are the types every entry path — the CLIs, the bench harness,
 * the `p10d` daemon and direct library callers — exchanges with the
 * engine, factored into a header with no dependency beyond
 * `common/error.h` so the lower layers (sweep, fault) can speak them
 * without depending on the facade library itself.
 *
 * ShardResult used to live in `src/sweep/runner.h` with the on-disk
 * serialization in `src/sweep/cache.cpp` mirroring its layout; it is
 * now public API (`sweep::ShardResult` remains as an alias), because a
 * service returning per-shard provenance needs the same shape the
 * cache persists and the runner folds.
 *
 * ProgressEvent is the one progress-callback currency: the sweep
 * runner, the fault campaign and the daemon's streamed `progress`
 * events all emit it, so any consumer (CLI stderr ticker, socket
 * stream, test harness) can subscribe to any producer.
 */

#ifndef P10EE_API_TYPES_H
#define P10EE_API_TYPES_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/error.h"

namespace p10ee::api {

/**
 * One core's slice of a multi-core chip shard (src/chip). Rows exist
 * only for shards with cores >= 2; 1-core shards keep the exact
 * historical ShardResult shape (the bare-core identity contract).
 */
struct ShardCoreRow
{
    uint64_t cycles = 0;      ///< raw simulated cycles
    uint64_t stallCycles = 0; ///< contention + governor backpressure
    uint64_t effCycles = 0;   ///< cycles + stallCycles
    uint64_t instrs = 0;
    double ipc = 0.0;         ///< instrs / effCycles
    double powerW = 0.0;
    double freqGhz = 0.0;     ///< broadcast frequency after yield cap
};

/** Outcome of one sweep shard (ok or recorded failure — never both
    halves). The unit of caching, merging and progress reporting. */
struct ShardResult
{
    uint64_t index = 0;
    std::string key;

    bool ok = false;
    /** Failure category + message when !ok (timeout, transient, ...). */
    common::Error error;
    int retries = 0; ///< transient-failure retries consumed

    // Simulation results (valid when ok).
    uint64_t cycles = 0;
    uint64_t instrs = 0;
    double ipc = 0.0;
    double powerW = 0.0;
    double ipcPerW = 0.0;

    /** Host wall-clock of this shard (diagnostic only; NEVER merged). */
    double wallSeconds = 0.0;

    /**
     * Provenance of externally ingested workloads: the recorded trace
     * name (scheme prefix stripped) and the content hash over its
     * canonical instruction bytes. Empty/zero for synthetic profiles.
     * Persisted by the shard cache and surfaced in the merged report's
     * "trace workloads" table, so a result always states which bytes
     * it measured.
     */
    std::string traceName;
    uint64_t traceHash = 0;

    /**
     * Replayed from the shard cache instead of simulated (provenance
     * only — cached and simulated results are byte-identical in the
     * merged report, so this flag never influences the merge).
     */
    bool fromCache = false;

    /** Per-shard IPC telemetry when the spec samples (x = cycle). */
    std::vector<double> ipcX;
    std::vector<double> ipcY;

    // ---- Chip-scope results (cores >= 2 only; see src/chip) ----
    // For multi-core shards, cycles/instrs/ipc/powerW above hold the
    // chip rollup (chip cycles = max per-core effective cycles, summed
    // instructions/power) and the fields below add the per-core
    // breakdown plus governor outcomes.

    int cores = 1;
    std::vector<ShardCoreRow> coreRows; ///< empty when cores == 1
    double chipFreqGhz = 0.0; ///< final broadcast WOF frequency
    double chipBoost = 0.0;   ///< final WOF boost
    uint64_t throttledEpochs = 0;
    uint64_t droopTrips = 0;
};

/**
 * One unit of work finished: the progress currency shared by every
 * long-running engine (sweep shards, campaign injections) and by the
 * daemon's streamed `progress` events. Producers serialize calls under
 * a mutex; completion order is scheduling-dependent, so anything
 * deterministic must come from the final result, never this stream.
 */
struct ProgressEvent
{
    uint64_t index = 0; ///< shard index / injection id (the identity)
    uint64_t total = 0; ///< units in the whole job (0 = unknown)
    std::string key;    ///< shard key / injected component
    bool ok = true;     ///< finished clean (not failed, not skipped)
    /** "ok", an error-code name, or a campaign outcome name. */
    std::string status;
    int retries = 0;        ///< transient retries consumed
    bool fromCache = false; ///< replayed from the shard cache
};

/** The one progress-callback signature (empty = no progress). */
using ProgressFn = std::function<void(const ProgressEvent&)>;

/**
 * Instructions one run or shard simulated: the per-thread warmup on
 * every (core, SMT thread) plus the measured window, which already
 * sums across cores. The single-run report and the sweep fold both
 * count through this, so their meta can never drift apart.
 */
inline uint64_t
simulatedInstrs(uint64_t warmupPerThread, int smt, int cores,
                uint64_t measured)
{
    return warmupPerThread * static_cast<uint64_t>(smt) *
               static_cast<uint64_t>(cores) +
           measured;
}

} // namespace p10ee::api

#endif // P10EE_API_TYPES_H
