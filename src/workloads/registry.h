/**
 * @file
 * Workload name resolution and source construction for every entry
 * path.
 *
 * Before this existed, `sweep::SweepSpec::expand()` and
 * `api::Service::runOne()` each resolved workload names straight
 * against the built-in profile tables and hard-constructed
 * `SyntheticWorkload` walkers — so a new kind of workload (a recorded
 * trace, say) would have needed parallel edits in every layer. The
 * registry is the one choke point:
 *
 *  - `resolveWorkload(name)` maps a workload name to a
 *    `WorkloadProfile`. Plain names ("xz", "python_interp") hit the
 *    built-in tables; "scheme:rest" names dispatch to a registered
 *    frontend (e.g. `src/trace` registers "trace" so "trace:<path>"
 *    resolves to a profile bound to that container file).
 *
 *  - `makeSource(profile, threadId)` constructs the checkpointable
 *    instruction source the profile describes: a SyntheticWorkload for
 *    plain profiles, the owning frontend's walker for bound ones;
 *    `makeChipSources(profile, cores, smt)` builds every source of a
 *    chip run from it.
 *
 * Frontends register imperatively (`registerFrontend`) from an
 * idempotent hook the consuming layer calls (static self-registration
 * in a static library is droppable by the linker, so it is banned
 * here). Registration is thread-safe; resolution is lock-protected and
 * cheap next to one simulated shard.
 */

#ifndef P10EE_WORKLOADS_REGISTRY_H
#define P10EE_WORKLOADS_REGISTRY_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "workloads/synthetic.h"

namespace p10ee::workloads {

/** One pluggable workload scheme ("trace", ...). */
struct WorkloadFrontend
{
    /** Scheme matched against the "scheme:" prefix of workload names.
        Lower-case, no ':' or '/'. */
    std::string scheme;

    /**
     * Resolve the part after "scheme:" into a frontend-bound profile
     * (name, frontend, sourcePath, contentHash populated). Unknown or
     * unreadable artifacts are structured errors.
     */
    std::function<common::Expected<WorkloadProfile>(
        const std::string& rest)>
        resolve;

    /**
     * Construct the walker for a profile this frontend resolved. The
     * artifact is re-validated against profile.contentHash so a file
     * swapped after resolution is an error, never a silently wrong
     * simulation.
     */
    std::function<common::Expected<std::unique_ptr<CheckpointableSource>>(
        const WorkloadProfile& profile, int threadId)>
        makeSource;
};

/** Register @p frontend; re-registering a scheme replaces it (the
    idempotent-hook idiom re-registers identical frontends). */
void registerFrontend(WorkloadFrontend frontend);

/** True when @p scheme has a registered frontend. */
bool hasFrontend(const std::string& scheme);

/** Registered scheme names, sorted (for --list style output). */
std::vector<std::string> frontendSchemes();

/**
 * Resolve a workload name from any entry path (sweep spec, RunRequest,
 * CLI flag): "scheme:rest" dispatches to the scheme's frontend; plain
 * names hit the built-in profile tables. Unknown names and unknown
 * schemes are NotFound errors.
 */
common::Expected<WorkloadProfile>
resolveWorkload(const std::string& name);

/**
 * Construct the checkpointable instruction source realizing
 * @p profile for SMT thread @p threadId.
 */
common::Expected<std::unique_ptr<CheckpointableSource>>
makeSource(const WorkloadProfile& profile, int threadId);

/** The sources of one chip, owned, with per-core views of them. */
struct ChipSources
{
    std::vector<std::unique_ptr<CheckpointableSource>> own;
    /** threads[c][t] and walkers[c][t] are thread t of core c. */
    std::vector<std::vector<InstrSource*>> threads;
    std::vector<std::vector<CheckpointableSource*>> walkers;
};

/**
 * One source per (core, SMT thread) of a chip running @p profile on
 * every core. Thread t of core c draws stream c * smt + t, so a 1-core
 * chip draws exactly the bare core's streams 0..smt-1 and every extra
 * core gets its own deterministic replicas. The first source that
 * fails to build is the error.
 */
common::Expected<ChipSources>
makeChipSources(const WorkloadProfile& profile, int cores, int smt);

} // namespace p10ee::workloads

#endif // P10EE_WORKLOADS_REGISTRY_H
