/**
 * @file
 * The multi-core chip model: N CoreModels behind one shared-resource
 * layer and one chip-scope governor.
 *
 * The paper draws its core-vs-chip efficiency distinction (Fig. 10)
 * because the chip adds exactly two things to N independent cores: the
 * shared fabric they contend on, and the firmware control loops that
 * see their summed power. ChipModel composes both over the existing
 * CoreModel without touching it: cores advance in lockstep epochs
 * (cfg.epochInstrs instructions each), and at every epoch barrier the
 * contention layer converts aggregate L3/memory demand into per-core
 * stall-cycle backpressure while the governor turns summed per-core
 * power proxies into one broadcast WOF/throttle/droop decision
 * (chip/contention.h, chip/governor.h).
 *
 * Contracts, mirrored from CoreModel and pinned by tests/test_chip.cpp:
 *  - split phase: beginRun binds per-core sources, advance() warms up
 *    (untimed — contention applies only to measured epochs), measure()
 *    runs the window; saveState/loadState make the whole chip
 *    checkpointable (captureChipCheckpoint/restoreChipCheckpoint wrap
 *    the versioned ckpt container);
 *  - a 1-core chip IS the bare core: measure() passes straight through
 *    to CoreModel::measure with no epoch slicing, no contention, no
 *    governor, and its checkpoint file is byte-identical to the bare
 *    ckpt::Checkpoint's;
 *  - determinism: results are a pure function of (configs, sources,
 *    seed) regardless of ChipRunOptions::coreJobs — cores simulate
 *    independently between barriers and every cross-core interaction
 *    happens on the coordinating thread in core-index order.
 */

#ifndef P10EE_CHIP_CHIP_H
#define P10EE_CHIP_CHIP_H

#include <cstdint>
#include <memory>
#include <vector>

#include "chip/contention.h"
#include "chip/governor.h"
#include "ckpt/checkpoint.h"
#include "common/error.h"
#include "core/core.h"
#include "obs/timeseries.h"
#include "power/energy.h"
#include "workloads/source.h"

namespace p10ee::chip {

/** The machine one ChipModel realizes. */
struct ChipConfig
{
    /** One CoreConfig per core; heterogeneous mixes are allowed. */
    std::vector<core::CoreConfig> cores;

    ContentionParams contention;
    GovernorParams governor;

    /** Lockstep epoch length: instructions each core simulates between
        contention/governor barriers. */
    uint64_t epochInstrs = 2048;

    /** Chip seed: keys the governor's per-core yield streams. */
    uint64_t seed = 1;

    common::Status validate() const;
};

/**
 * Deterministic hash over everything that parameterizes a chip: core
 * count, every per-core config hash, the contention and governor
 * parameters, the epoch length and the chip seed. Binds chip
 * checkpoints and keys the sweep shard cache, exactly as
 * ckpt::configHash does for one core.
 */
uint64_t chipConfigHash(const ChipConfig& cfg);

/** Per-core outcome of one chip measurement window. */
struct ChipCoreOutcome
{
    /** The core's own measured window (raw timing, pre-backpressure). */
    core::RunResult run;

    /** Contention + governor backpressure charged to this core. */
    uint64_t stallCycles = 0;

    /** run.cycles + stallCycles: the cycles this core's window costs
        at chip scope. */
    uint64_t effCycles = 0;

    double ipc = 0.0;    ///< instrs / effCycles
    double powerW = 0.0; ///< energy-model watts over the raw window
    double freqGhz = 0.0;///< broadcast frequency capped by this core
    double fMaxGhz = 0.0;///< this core's yield cap
};

/** Outcome of one chip measurement window. */
struct ChipResult
{
    std::vector<ChipCoreOutcome> cores;

    uint64_t epochs = 0;     ///< lockstep barriers executed
    uint64_t chipCycles = 0; ///< max over cores of effCycles
    uint64_t instrs = 0;     ///< summed committed instructions
    double ipc = 0.0;        ///< instrs / chipCycles (chip throughput)
    double powerW = 0.0;     ///< summed per-core watts
    double freqGhz = 0.0;    ///< final broadcast WOF frequency
    double boost = 0.0;      ///< final WOF boost (freq / nominal)
    uint64_t throttledEpochs = 0;
    uint64_t droopTrips = 0;
    bool timedOut = false;   ///< chip cycles passed the budget
};

/** Options for one chip measurement window. */
struct ChipRunOptions
{
    uint64_t measureInstrs = 100000; ///< per core

    /** Chip effective-cycle budget; 0 = unbounded. Checked at epoch
        barriers; an overrun sets ChipResult::timedOut. */
    uint64_t maxCycles = 0;

    /** Worker threads for the per-epoch core simulations; results are
        identical for any value (see the determinism contract). */
    int coreJobs = 1;

    /**
     * Optional telemetry sink, owned by the calling thread. For 1-core
     * chips it is handed to the core unchanged (bare byte-identity).
     * For N cores the chip samples its own tracks (chip.power_w,
     * chip.freq_ghz, chip.stall_frac, chip.ipc) at epoch barriers and
     * merges one internal per-core recorder per core into it, in
     * core-index order, as chip.core<i>.* tracks — worker threads
     * never publish (obs/timeseries.h single-owner contract).
     */
    obs::TimeSeriesRecorder* recorder = nullptr;

    /** Honoured only by 1-core chips (per-instruction timings are a
        single-core diagnostic). */
    bool collectTimings = false;
};

/** One chip instance; construct per run (state is not reusable). */
class ChipModel
{
  public:
    explicit ChipModel(ChipConfig cfg);

    ChipModel(const ChipModel&) = delete;
    ChipModel& operator=(const ChipModel&) = delete;

    int numCores() const { return static_cast<int>(cores_.size()); }
    const ChipConfig& config() const { return cfg_; }

    core::CoreModel& coreAt(int i) { return *cores_[static_cast<size_t>(i)]; }
    const core::CoreModel& coreAt(int i) const
    {
        return *cores_[static_cast<size_t>(i)];
    }

    /** Bind instruction sources, one vector (SMT threads) per core. */
    void beginRun(
        const std::vector<std::vector<workloads::InstrSource*>>&
            perCoreThreads);

    /** Warm every core by @p instrsPerCore instructions, untimed. */
    void advance(uint64_t instrsPerCore);

    /** Run the measurement window (see the class comment). */
    ChipResult measure(const ChipRunOptions& opts);

    /**
     * Serialize every core's state plus the contention and governor
     * state. Must be called between beginRun/advance and measure;
     * instruction sources are serialized separately by the owner
     * (captureChipCheckpoint does both).
     */
    void saveState(common::BinWriter& w) const;

    /** Restore state saved by saveState() into a chip constructed with
        the same config and beginRun() with the same source shape. */
    common::Status loadState(common::BinReader& r);

  private:
    ChipConfig cfg_;
    std::vector<std::unique_ptr<core::CoreModel>> cores_;
    std::vector<power::EnergyModel> energy_;
    ContentionLayer contention_;
    ChipGovernor governor_;
};

/**
 * Snapshot a warmed-up chip (between advance and measure) and every
 * core's workload-walker state into a versioned checkpoint. For 1-core
 * chips this delegates to ckpt::Checkpoint::capture over the bare core
 * — the file is byte-identical to the single-core path's. For N cores
 * the payload leads with the core count and every per-core config
 * hash, so restoring with the wrong core count or a mixed config set
 * fails with a structured error naming the mismatch before any state
 * is touched.
 */
ckpt::Checkpoint captureChipCheckpoint(
    const ChipModel& chip,
    const std::vector<std::vector<workloads::CheckpointableSource*>>&
        walkers,
    ckpt::CheckpointMeta meta);

/** Restore a captureChipCheckpoint snapshot into @p chip (same config,
    beginRun already called over equivalently rebuilt sources). On
    failure the chip may be partially mutated and must be discarded. */
common::Status restoreChipCheckpoint(
    const ckpt::Checkpoint& ck, ChipModel& chip,
    const std::vector<std::vector<workloads::CheckpointableSource*>>&
        walkers);

} // namespace p10ee::chip

#endif // P10EE_CHIP_CHIP_H
