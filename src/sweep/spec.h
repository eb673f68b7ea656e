/**
 * @file
 * Sweep specification: the declarative grid a sweep runs.
 *
 * The paper's methodology is a sweep — APEX power extraction, M1-linked
 * counter models and SERMiner derating are all evaluated over grids of
 * (core config x workload x seed) — and this type is that grid made
 * first-class: a SweepSpec names its axes, validates like every other
 * user input in the tree (structured Error, never an abort), and
 * expands into a flat, deterministically ordered list of shard jobs.
 *
 * The expansion order is part of the format: shards are numbered in
 * nested-loop order, configs outermost, then workloads, then SMT
 * levels, then chip sizes, then seed replicas. The shard index is
 * the identity every downstream guarantee hangs off — per-shard RNG streams derive from
 * it (common::splitSeed), and the merge stage folds results in index
 * order, which is what makes merged reports byte-identical no matter
 * how many threads executed the shards or in what order they finished.
 */

#ifndef P10EE_SWEEP_SPEC_H
#define P10EE_SWEEP_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/config.h"
#include "obs/json.h"
#include "workloads/spec_profiles.h"

namespace p10ee::sweep {

/** One expanded grid point: an isolated simulation job. */
struct ShardSpec
{
    uint64_t index = 0; ///< position in expansion order (the identity)
    std::string configName;
    core::CoreConfig config;
    /** Profile with the replica seed already derived (splitSeed). */
    workloads::WorkloadProfile profile;
    int smt = 1;
    /** Cores on the simulated chip; 1 = the bare-core path. */
    int cores = 1;
    uint64_t seedIndex = 0;

    /**
     * "config/workload/smtN/seedK" — stable human-readable identity.
     * Multi-core shards append "/cN"; 1-core shards keep the exact
     * historical key, part of the 1-core ≡ bare-core byte-identity
     * contract.
     */
    std::string key() const;
};

/** The declarative sweep grid (what `--spec sweep.json` deserializes). */
struct SweepSpec
{
    /** Machine names: "power9", "power10", or "ablate:<group>". */
    std::vector<std::string> configs;
    /** Workload profile names (see `p10sim_cli --list`). */
    std::vector<std::string> workloads;
    std::vector<int> smt = {1};
    /** Chip sizes to sweep: cores per simulated chip. 1 runs the
        bare-core path; N >= 2 runs N cores through the shared-resource
        and chip-governor layers (src/chip). */
    std::vector<int> cores = {1};

    /** Seed replicas per grid point; replica k runs the profile under
        splitSeed(profile.seed, k), replica 0 the profile default. */
    uint64_t seeds = 1;

    uint64_t instrs = 20000; ///< measured instructions per shard
    uint64_t warmup = 5000;  ///< warmup instructions per thread

    /** Per-shard cycle budget; 0 = unbounded. A shard exceeding it is
        recorded as a timeout failure, never retried. */
    uint64_t maxCycles = 0;

    int maxRetries = 2; ///< retries after a transient infra failure

    /** Synthetic transient-failure probability per attempt, drawn from
        the shard's own seeded stream (tests of the retry machinery;
        zero in normal use). */
    double infraFailProb = 0.0;

    /** Master seed: per-shard infrastructure streams derive from it. */
    uint64_t seed = 1;

    /** Telemetry sampling interval per shard; 0 = no telemetry. */
    uint64_t sampleInterval = 0;

    /** When non-empty, every shard also writes its own p10ee-report/1
        file under this directory (created if missing). */
    std::string shardReportsDir;

    /** Structured validation of user-supplied fields. */
    common::Status validate() const;

    /** Grid size (product of the axis lengths). */
    uint64_t shardCount() const;

    /**
     * Expand the grid into shard jobs in the documented order.
     * Resolves config and workload names; unknown names are NotFound
     * errors naming the offender.
     */
    common::Expected<std::vector<ShardSpec>> expand() const;

    /**
     * Canonical JSON rendering of the spec: every field, fixed key
     * order, fixed number formatting. `fromJson(toJson())` reproduces
     * the spec exactly, which is what lets a coordinator ship a spec to
     * remote workers and still meet the byte-identity contract — both
     * sides expand the same grid from the same text.
     */
    std::string toJson() const;

    /** Parse a spec from JSON text. Unknown keys are errors — a typo
        in an axis name must not silently shrink a sweep. */
    static common::Expected<SweepSpec> fromJson(const std::string& text);

    /** fromJson() over an already-parsed DOM node (the daemon embeds
        specs inside request objects). Same strictness. */
    static common::Expected<SweepSpec> fromJsonValue(
        const obs::JsonValue& root);

    /** fromJson() over the contents of @p path. */
    static common::Expected<SweepSpec> fromJsonFile(
        const std::string& path);

    /** Resolve "power9" / "power10" / "ablate:<group>". */
    static common::Expected<core::CoreConfig> resolveConfig(
        const std::string& name);
};

} // namespace p10ee::sweep

#endif // P10EE_SWEEP_SPEC_H
