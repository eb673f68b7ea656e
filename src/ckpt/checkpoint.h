/**
 * @file
 * Versioned binary checkpoints of resumable simulation state.
 *
 * A checkpoint captures everything that determines a simulation's
 * future — the CoreModel's architectural and microarchitectural state
 * (predictor tables, cache tags, queues, throttle rings, stat
 * counters) plus each SMT thread's workload-walker state (RNG, CFG
 * cursor, region cursors) — so a measured region can fork from a
 * warmed-up machine without re-simulating the warmup. restore() +
 * measure() is bit-identical to advance(warmup) + measure(): the
 * round-trip tests diff the stats JSON byte for byte.
 *
 * File format (a common::SealedFile; all little-endian, see
 * common/serialize.h):
 *
 *   magic "P10CKPT\0" | u32 format version | u32 state-schema version
 *   | u64 config hash | meta strings/ints | u64 payload size | payload
 *   | u64 FNV-1a checksum over everything before it
 *
 * Two versions gate compatibility: kFormatVersion covers this
 * container layout, kStateSchemaVersion covers the serialized layout
 * of the model state inside the payload (bump it whenever any
 * saveState() implementation changes). The config hash binds a
 * checkpoint to the exact CoreConfig that produced it — restoring
 * into a differently parameterized model is an input error, reported
 * as a structured Error, never UB. Corrupt, truncated or bit-flipped
 * files fail the checksum or the bounds-checked deserializers and are
 * likewise rejected with Expected<> errors.
 */

#ifndef P10EE_CKPT_CHECKPOINT_H
#define P10EE_CKPT_CHECKPOINT_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/core.h"
#include "workloads/synthetic.h"

namespace p10ee::ckpt {

/** Container-layout version of the checkpoint file format. */
inline constexpr uint32_t kFormatVersion = 1;

/**
 * Version of the serialized simulator state inside the payload. Bump
 * whenever any saveState() layout changes; it also keys the sweep
 * shard cache (src/sweep/cache.h), so stale cache entries from an
 * older simulator become misses instead of corrupt loads.
 *
 * v2: pipeline queues serialize via FifoRing (occupancy validated
 * against config-derived capacity on load), the vestigial per-thread
 * LMQ copy is gone, and sw.* switching counters are filtered from the
 * stat snapshot (they never feed forward into timing).
 */
inline constexpr uint32_t kStateSchemaVersion = 2;

/**
 * Deterministic hash over every CoreConfig field (including the
 * display name), stable across platforms and builds. Two configs
 * hash equal iff the machines they describe are identical.
 */
uint64_t configHash(const core::CoreConfig& cfg);

/** Provenance recorded alongside the state payload. */
struct CheckpointMeta
{
    std::string configName;   ///< "power9", "power10", "ablate:..."
    std::string workload;     ///< profile name driving the threads
    uint32_t numThreads = 1;  ///< SMT sources bound at capture
    uint64_t warmupInstrs = 0;///< instructions advanced before capture
    uint64_t seed = 0;        ///< workload profile seed
};

/** One captured simulation state, save/load-able as a file. */
class Checkpoint
{
  public:
    /**
     * Snapshot @p model (which must be between beginRun/advance and
     * measure) and the walker state of @p sources (the same sources,
     * in the same order, that beginRun bound). Any checkpointable
     * source qualifies — synthetic generators and trace replay
     * cursors alike.
     */
    static Checkpoint capture(
        const core::CoreModel& model,
        const std::vector<workloads::CheckpointableSource*>& sources,
        CheckpointMeta meta);

    /**
     * Restore into @p model — constructed with the same config
     * (verified via the config hash) and beginRun() over @p sources
     * rebuilt identically (same profiles/threadIds, or the same trace
     * content). On failure the model is partially mutated and must be
     * discarded.
     */
    common::Status restore(
        core::CoreModel& model,
        const std::vector<workloads::CheckpointableSource*>& sources)
        const;

    /**
     * Assemble a checkpoint from an externally serialized payload —
     * the extension point for wrappers that checkpoint more than one
     * core (src/chip). @p stateHash plays the config-hash role: it
     * must bind the payload to the full configuration that produced
     * it, in whatever hash space the wrapper defines.
     */
    static Checkpoint fromParts(CheckpointMeta meta, uint64_t stateHash,
                                std::vector<uint8_t> payload);

    const CheckpointMeta& meta() const { return meta_; }

    /** Hash of the config this checkpoint was captured under. */
    uint64_t capturedConfigHash() const { return cfgHash_; }

    /** The raw state payload (for fromParts-style wrappers). */
    const std::vector<uint8_t>& payload() const { return payload_; }

    /** Serialized state payload size in bytes (diagnostics). */
    size_t payloadBytes() const { return payload_.size(); }

    /** Serialize to the documented file format. */
    std::vector<uint8_t> toBytes() const;

    /**
     * Parse the documented file format; magic/version/checksum
     * mismatches and truncation are structured errors.
     */
    static common::Expected<Checkpoint> fromBytes(const uint8_t* data,
                                                  size_t size);
    static common::Expected<Checkpoint> fromBytes(
        const std::vector<uint8_t>& bytes);

    /** toBytes() to a file, written atomically (temp + rename). */
    common::Status save(const std::string& path) const;

    /** fromBytes() over the contents of @p path. */
    static common::Expected<Checkpoint> load(const std::string& path);

  private:
    CheckpointMeta meta_;
    uint64_t cfgHash_ = 0;
    std::vector<uint8_t> payload_;
};

} // namespace p10ee::ckpt

#endif // P10EE_CKPT_CHECKPOINT_H
