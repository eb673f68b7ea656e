/**
 * @file
 * Content-addressed on-disk cache of sweep shard results.
 *
 * A shard's result is a pure function of its spec (determinism
 * contract, see runner.h), so it can be memoized across processes: the
 * cache key is an FNV-1a hash over a *canonicalized* JSON rendering of
 * every semantic input of the shard — grid position, resolved config
 * (content-hashed, not just named), workload profile (ditto), SMT
 * level, seed replica, instruction/warmup/cycle budgets, retry and
 * infra-failure parameters, sweep master seed, sampling interval —
 * mixed with the cache container version and the simulator's
 * state-schema version (ckpt::kStateSchemaVersion). Canonicalization
 * fixes key order and number formatting, so two spec files that spell
 * the same sweep with reordered JSON keys hit the same entries, while
 * any semantic change (or a simulator whose serialized behaviour
 * changed) misses.
 *
 * Robustness contract: a cache can only ever save work, never change
 * results or fail a sweep. Corrupt, truncated, stale-version or
 * colliding entries are silently treated as misses (the shard is
 * simulated again and the entry rewritten); unwritable inserts degrade
 * to not caching. An entry is a common::SealedFile, written to a temp
 * file named by process id and counter and then renamed, so
 * concurrent runs sharing a cache directory — threads or processes —
 * never share a temp file or observe partial entries. Failed shards
 * are cached too — a deterministic failure (timeout, exhausted
 * retries) reproduces identically, so re-simulating it would waste the
 * same cycles to learn the same thing.
 */

#ifndef P10EE_SWEEP_CACHE_H
#define P10EE_SWEEP_CACHE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/types.h"
#include "common/error.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

namespace p10ee::sweep {

/** Container-layout version of cache entry files. v2: the serialized
    common::ErrorCode enum grew Overloaded/Cancelled before Internal,
    renumbering persisted codes — v1 entries are unreachable, not
    misread. v3: ShardResult gained trace provenance (traceName,
    traceHash) between ipcPerW and the telemetry series. v4:
    ShardResult gained the chip-scope block (cores, per-core rows,
    governor rollup) after the telemetry series, and the canonical key
    gained the "cores" axis. v5: ShardResult gained a trailing
    fidelity-mode byte (full / fast_m1) and the canonical key gained a
    "mode" axis. v6: the fast_m1 mode is gone, and with it the mode
    byte and key field — v5 entries are misses, never misread. */
inline constexpr uint32_t kCacheFormatVersion = 6;

/** One cache directory; cheap to construct, stateless, thread-safe. */
class ShardCache
{
  public:
    /** @param dir cache directory (non-empty; created by prepare()). */
    explicit ShardCache(std::string dir);

    /** Create the cache directory; unwritable paths are input errors. */
    common::Status prepare() const;

    /**
     * The canonical JSON identity of @p shard under @p spec: fixed key
     * order, fixed number formatting, content hashes for the resolved
     * config and profile. This string (not the spec file's text) is
     * what gets hashed.
     */
    static std::string canonicalKeyJson(const SweepSpec& spec,
                                        const ShardSpec& shard);

    /** FNV-1a key over canonicalKeyJson + container/schema versions. */
    static uint64_t shardKey(const SweepSpec& spec,
                             const ShardSpec& shard);

    /** Entry file path for @p key: "<dir>/<16-hex-digits>.shard". */
    std::string entryPath(uint64_t key) const;

    /**
     * Serialize @p result into a complete, self-validating entry:
     * magic + container/schema versions + key + body + whole-file
     * checksum. This is both the on-disk file format and the fabric
     * wire format — a worker's shard_done payload IS a cache entry, so
     * the coordinator persists it verbatim and decodes it through the
     * same validated path as a local cache hit.
     */
    static std::vector<uint8_t> encodeEntry(const SweepSpec& spec,
                                            const ShardSpec& shard,
                                            const ShardResult& result);

    /**
     * Validate and decode one entry for @p shard under @p spec. Any
     * mismatch — bad magic, stale versions, wrong key, failed checksum,
     * truncation, identity collision — is nullopt, never an error or an
     * abort: entry bytes come from disks and sockets, both hostile.
     */
    static std::optional<ShardResult> decodeEntry(
        const std::vector<uint8_t>& bytes, const SweepSpec& spec,
        const ShardSpec& shard);

    /**
     * Raw entry bytes for @p key, container-validated (magic, versions,
     * stored key, checksum) but not identity-checked — the caller that
     * can name the shard does that via decodeEntry(). Serves the remote
     * cache tier, where the coordinator answers cache_get by key alone.
     */
    std::optional<std::vector<uint8_t>> readBytes(uint64_t key) const;

    /**
     * Persist pre-encoded entry bytes under @p key (atomic temp +
     * rename), container-validating first so a hostile or truncated
     * payload can never be installed as an entry. Best-effort, like
     * insert().
     */
    common::Status writeBytes(uint64_t key,
                              const std::vector<uint8_t>& bytes) const;

    /**
     * Look up the shard's cached result. Any mismatch — absent entry,
     * bad magic, stale versions, failed checksum, truncation, key or
     * identity collision — is a miss, never an error.
     */
    std::optional<ShardResult> lookup(const SweepSpec& spec,
                                      const ShardSpec& shard) const;

    /**
     * Persist @p result under the shard's key (atomic temp + rename).
     * Best-effort: callers may ignore the status — an unwritable cache
     * degrades to not caching, it must not fail the sweep.
     */
    common::Status insert(const SweepSpec& spec, const ShardSpec& shard,
                          const ShardResult& result) const;

    const std::string& dir() const { return dir_; }

  private:
    std::string dir_;
};

} // namespace p10ee::sweep

#endif // P10EE_SWEEP_CACHE_H
