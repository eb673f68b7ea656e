/**
 * @file
 * The trace-driven, cycle-approximate out-of-order SMT core model.
 *
 * This is the repo's substitute for the paper's RTLSim/M1 models: a
 * mechanistic pipeline model with real predictor tables, cache tag
 * arrays, queue occupancy, issue-port contention and dependence
 * tracking, parameterized by CoreConfig to represent POWER9, POWER10,
 * and the Fig. 4 ablation points. It produces timing (cycles/IPC),
 * the activity counters the power models consume, and optional
 * per-instruction event timings for per-cycle power reconstruction.
 *
 * Modeling approach: instructions flow through fetch / decode / dispatch
 * / issue / complete / commit with each stage assigning a cycle under
 * width throttles, structure occupancy (instruction table, LDQ, STQ,
 * LMQ), port capacity, operand readiness and memory latency. SMT threads
 * interleave by earliest-fetch-first and share all backend resources;
 * queue structures are partitioned per thread as on the real machines.
 */

#ifndef P10EE_CORE_CORE_H
#define P10EE_CORE_CORE_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "obs/timeseries.h"
#include "core/branch.h"
#include "core/cache.h"
#include "core/config.h"
#include "core/prefetch.h"
#include "core/result.h"
#include "core/rings.h"
#include "isa/instr.h"
#include "workloads/source.h"

namespace p10ee::core {

class CoreModel;

/** Options for one measurement run. */
struct RunOptions
{
    uint64_t warmupInstrs = 20000;  ///< not counted in the window
    uint64_t measureInstrs = 100000;
    bool collectTimings = false;    ///< fill RunResult::timings
    bool infiniteL2 = false;        ///< APEX "core model" mode (Fig. 10)

    /**
     * Cycle budget for the measurement window; 0 = unbounded. A run
     * whose commit front passes the budget stops early with
     * RunResult::timedOut set — the fault-injection campaign's
     * crash-timeout detector, and a general guard for batch sweeps.
     */
    uint64_t maxCycles = 0;

    /**
     * Fault-injection hook: after @p injectAtInstr instructions of the
     * measurement window have been processed, @p onInject is called
     * once with the model so it can flip bits in live structures
     * (branch tables, cache tags). Inactive when onInject is empty.
     */
    uint64_t injectAtInstr = 0;
    std::function<void(CoreModel&)> onInject;

    /**
     * Optional telemetry sink. When set, the measurement window
     * publishes interval samples (at recorder->interval() cycles) of
     * IPC and ROB/LDQ/STQ/ibuffer occupancy, plus duration slices for
     * mispredict-flush episodes. Cycle stamps are relative to the
     * measurement-window start, matching RunResult::timings.
     */
    obs::TimeSeriesRecorder* recorder = nullptr;
};

/** One core instance; construct per run (state is not reusable). */
class CoreModel
{
  public:
    explicit CoreModel(const CoreConfig& cfg);
    ~CoreModel();

    CoreModel(const CoreModel&) = delete;
    CoreModel& operator=(const CoreModel&) = delete;

    /**
     * Run @p threads SMT hardware threads, one instruction source each,
     * for warmup + measurement, and return the measurement window.
     * Equivalent to beginRun + advance(warmup) + measure.
     */
    RunResult run(const std::vector<workloads::InstrSource*>& threads,
                  const RunOptions& opts);

    // ---- Split-phase run API (src/ckpt warmup fast-forward) ----
    // beginRun binds sources and resets per-run state; advance() steps
    // instructions without opening a measurement window (warmup);
    // measure() then runs the measured region. A checkpoint captured
    // between advance() and measure() lets later runs skip the warmup:
    // restore + measure() is bit-identical to advance + measure().

    /** Bind one instruction source per SMT thread and reset run state. */
    void beginRun(const std::vector<workloads::InstrSource*>& threads,
                  bool infiniteL2 = false);

    /** Step @p instrs instructions outside any measurement window. */
    void advance(uint64_t instrs);

    /**
     * Run the measurement window (opts.warmupInstrs is ignored — any
     * warmup has already been advance()d or restored) and return it.
     */
    RunResult measure(const RunOptions& opts);

    /**
     * Absolute commit-front cycle: the latest commit any SMT thread has
     * reached since beginRun. Monotone across advance/measure calls;
     * the chip model (src/chip) differences it across lockstep epochs
     * for an unclamped epoch cycle count (RunResult::cycles reports a
     * zero-length window as 1).
     */
    uint64_t commitFrontCycle() const;

    // ---- Checkpoint surface (src/ckpt) ----

    /**
     * Serialize all state that determines future simulation: stats,
     * tag arrays, predictor/prefetcher tables, throttle rings,
     * bandwidth servers and per-thread pipeline state. Must be called
     * between beginRun/advance and measure (never mid-measurement);
     * instruction sources are serialized separately by the owner.
     */
    void saveState(common::BinWriter& w) const;

    /**
     * Restore state saved by saveState() into a model constructed with
     * the same config and beginRun() with the same thread count. On
     * failure the model is partially mutated and must be discarded.
     */
    common::Status loadState(common::BinReader& r);

    /** The configuration this core realizes. */
    const CoreConfig& config() const { return cfg_; }

    // ---- Fault-injection surface (src/fault) ----
    // Mutable access to the model's bit-addressable structures, used by
    // RunOptions::onInject callbacks to plant single-bit upsets mid-run.

    /** Tag/translation arrays addressable by the injection engine. */
    enum class ArrayId { L1I, L1D, L2, L3, Tlb, Ierat, Derat };

    /** The live branch predictor. */
    BranchPredictor& branchState() { return bp_; }

    /** The live tag array behind @p id. */
    CacheModel& arrayState(ArrayId id);

  private:
    struct ThreadState;

    /** Memory tiers with interned per-tier miss counters; rarer tiers
        fall back to the string-keyed path. */
    static constexpr size_t kHotTiers = 8;

    /**
     * Interned handles for every fixed-name counter the per-instruction
     * path touches; add(StatId) is an array index, so per-cycle
     * accounting stays off the string-keyed map. The l1d/l2 per-tier
     * miss breakdowns are interned for the first kHotTiers tiers, so a
     * miss no longer constructs a std::string key on the hot path.
     */
    struct HotIds
    {
        common::StatId l2Access, l2Miss, l3Access, l3Miss, memAccess,
            memAccessInstr, ieratAccess, ieratMiss, deratAccess,
            deratMiss, tlbAccess, tlbMiss, fetchLine, l1iMiss,
            fetchPrefix, fetchInstr, bpLookup, bpIndirectMispredict,
            bpMispredict, flushWasted, flushStall, fusionPair,
            commitInstr, lsuStFused, decodePrefixFused, decodeCracked,
            decodeOp, dispatchOp, renameWrite, rfRead,
            fusionSharedIssue, issueAlu, issueMul, issueDiv, issueFp,
            issueVsuInt, issueLd, issueSt, issueBr, issueMma,
            issueTotal, lsuLd, l1dRead, l1dMiss, pfIssued, lsuSt,
            lsuStMerge, l1dWrite, l1dMissSt, mmaGer, mmaMove, vsuFp,
            vsuInt, fpScalar, swAlu, swFp, swVsu, swLs, swMma, rfWrite,
            commitOp;
        std::array<common::StatId, kHotTiers> l2MissTier, l1dMissTier;
    };

    void stepOne();
    void processInstr(int t, const isa::TraceInstr& in);
    void maybeSample(uint64_t i);
    void saveThread(common::BinWriter& w, const ThreadState& ts) const;
    common::Status loadThread(common::BinReader& r, ThreadState& ts);
    uint64_t fetchCycle(ThreadState& ts, const isa::TraceInstr& in);
    uint64_t missLatency(uint64_t addr, uint64_t when, bool isInstr,
                         uint8_t tier = 0xff);
    uint64_t translate(ThreadState& ts, uint64_t addr, bool isInstr);
    void resolveBranch(int t, ThreadState& ts, const isa::TraceInstr& in,
                       uint64_t fetched, uint64_t resolve);
    int latencyOf(isa::OpClass op) const;

    CoreConfig cfg_;
    common::StatRegistry stats_;
    HotIds ids_;
    int numThreads_ = 1;
    bool measuring_ = false;
    uint64_t measureBaseCycle_ = 0;
    bool collectTimings_ = false;
    bool infiniteL2_ = false;

    // Per-run queue capacities (fixed by beginRun; the per-thread
    // partitions depend on the SMT level).
    size_t ibufCap_ = 8;
    size_t robCap_ = 1;
    size_t ldqCap_ = 1;
    size_t stqCap_ = 1;
    std::vector<InstrTiming> timings_;
    uint64_t opsCommitted_ = 0;
    uint64_t flops_ = 0;

    // Telemetry (active only while a RunOptions::recorder is attached).
    obs::TimeSeriesRecorder* rec_ = nullptr;
    obs::TrackId ipcTrack_, robTrack_, ldqTrack_, stqTrack_,
        ibufTrack_;
    obs::TrackId flushSlices_;
    uint64_t nextSampleCycle_ = 0;  ///< relative to measurement base
    uint64_t lastSampleCommits_ = 0;

    // Shared structures.
    CacheModel l1i_;
    CacheModel l1d_;
    CacheModel l2_;
    CacheModel l3_;
    TranslationCache ierat_;
    TranslationCache derat_;
    TranslationCache tlb_;
    BranchPredictor bp_;
    StreamPrefetcher prefetcher_;
    std::vector<uint64_t> pfScratch_;
    FifoRing lmq_; ///< shared load-miss queue fill times

    // Pipeline-width throttles (shared across SMT threads).
    ThrottleRing fetchRing_;
    ThrottleRing decodeRing_;
    ThrottleRing dispatchRing_;
    ThrottleRing issueRing_;
    ThrottleRing commitRing_;

    // Issue ports.
    ThrottleRing aluRing_;
    ThrottleRing fpRing_;
    ThrottleRing vsuIntRing_;
    ThrottleRing ldRing_;
    ThrottleRing stRing_;
    ThrottleRing brRing_;
    ThrottleRing mmaRing_;
    std::unique_ptr<ThrottleRing> lsCombinedRing_; ///< POWER9 sharing

    // Bandwidth servers.
    BandwidthServer l2Server_;
    BandwidthServer l3Server_;
    BandwidthServer memServer_;

    /** Flat per-thread pipeline state (structure-of-threads layout:
        contiguous storage, no per-thread pointer chase on the
        per-instruction path). */
    std::vector<ThreadState> threads_;
};

} // namespace p10ee::core

#endif // P10EE_CORE_CORE_H
