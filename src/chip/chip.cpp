#include "chip/chip.h"

#include <algorithm>
#include <thread>

#include "common/assert.h"
#include "common/hash.h"

namespace p10ee::chip {

using common::BinReader;
using common::BinWriter;
using common::Error;
using common::Fnv1a;
using common::Status;

namespace {

/** Stats the contention layer reads from each core's epoch window. */
constexpr const char* kMemAccessStat = "mem.access";
constexpr const char* kL3AccessStat = "l3.access";

void
serializeContentionParams(BinWriter& w, const ContentionParams& p)
{
    w.u64(p.memLinesPer16Cycles);
    w.u64(p.memStallPerLine);
    w.u64(p.l3CapacityLines);
    w.u64(p.l3MissPenalty);
}

void
serializeGovernorParams(BinWriter& w, const GovernorParams& p)
{
    w.f64(p.wof.tdpWatts);
    w.f64(p.wof.fNomGhz);
    w.f64(p.wof.fMinGhz);
    w.f64(p.wof.fMaxGhz);
    w.f64(p.wof.vNom);
    w.f64(p.wof.vSlope);
    w.f64(p.wof.leakNomWatts);
    w.f64(p.wof.leakVExp);
    w.f64(p.wof.mmaLeakWatts);
    w.f64(p.wof.fStepGhz);
    w.f64(p.throttleGainPerWatt);
    w.f64(p.throttleMaxFrac);
    w.f64(p.droopStepWatts);
    w.u64(static_cast<uint64_t>(p.droopHoldEpochs));
    w.f64(p.droopStallFrac);
    w.f64(p.yieldSpreadGhz);
}

/**
 * Run @p fn(i) for every core index, fanned out over @p jobs threads
 * by static partition (thread j owns indices j, j+jobs, ...). Each
 * index touches only its own slots, so the result is identical for
 * any jobs value — the chip determinism contract.
 */
template <typename Fn>
void
forEachCore(size_t n, int jobs, Fn&& fn)
{
    const size_t workers = std::min<size_t>(
        n, static_cast<size_t>(std::max(jobs, 1)));
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t j = 0; j < workers; ++j) {
        pool.emplace_back([&fn, j, n, workers] {
            for (size_t i = j; i < n; i += workers)
                fn(i);
        });
    }
    for (auto& t : pool)
        t.join();
}

} // namespace

Status
ChipConfig::validate() const
{
    if (cores.empty())
        return Error::invalidConfig("chip: must have at least 1 core");
    if (epochInstrs == 0)
        return Error::invalidConfig(
            "chip: epoch length must be > 0 instructions");
    if (auto st = contention.validate(cores.size()); !st.ok())
        return st;
    return governor.validate();
}

uint64_t
chipConfigHash(const ChipConfig& cfg)
{
    BinWriter w;
    w.u64(cfg.cores.size());
    for (const auto& c : cfg.cores)
        w.u64(ckpt::configHash(c));
    serializeContentionParams(w, cfg.contention);
    serializeGovernorParams(w, cfg.governor);
    w.u64(cfg.epochInstrs);
    w.u64(cfg.seed);
    Fnv1a h;
    h.bytes(w.bytes().data(), w.size());
    return h.digest();
}

ChipModel::ChipModel(ChipConfig cfg)
    : cfg_(std::move(cfg)),
      contention_(cfg_.contention, cfg_.cores.size()),
      governor_(cfg_.governor, cfg_.cores.size(), cfg_.seed)
{
    P10_ASSERT(!cfg_.cores.empty(), "chip with zero cores");
    cores_.reserve(cfg_.cores.size());
    energy_.reserve(cfg_.cores.size());
    for (const auto& c : cfg_.cores) {
        cores_.push_back(std::make_unique<core::CoreModel>(c));
        energy_.emplace_back(c, /*includeChip=*/true);
    }
}

void
ChipModel::beginRun(
    const std::vector<std::vector<workloads::InstrSource*>>&
        perCoreThreads)
{
    P10_ASSERT(perCoreThreads.size() == cores_.size(),
               "beginRun: one source vector per core required");
    for (size_t i = 0; i < cores_.size(); ++i)
        cores_[i]->beginRun(perCoreThreads[i]);
    // Fresh run: the shared layer and governor restart from their
    // constructed state, like every per-core structure does.
    contention_ = ContentionLayer(cfg_.contention, cores_.size());
    governor_ = ChipGovernor(cfg_.governor, cores_.size(), cfg_.seed);
}

void
ChipModel::advance(uint64_t instrsPerCore)
{
    // Warmup is untimed and cores do not interact outside measured
    // epochs, so each core just advances independently.
    for (auto& c : cores_)
        c->advance(instrsPerCore);
}

ChipResult
ChipModel::measure(const ChipRunOptions& opts)
{
    const size_t n = cores_.size();
    ChipResult out;
    out.cores.resize(n);

    if (n == 1) {
        // A 1-core chip IS the bare core: same RunOptions, same
        // recorder, same timings — the differential tests pin the
        // resulting report bytes against the bare CoreModel path.
        core::RunOptions ro;
        ro.measureInstrs = opts.measureInstrs;
        ro.maxCycles = opts.maxCycles;
        ro.collectTimings = opts.collectTimings;
        ro.recorder = opts.recorder;
        core::RunResult run = cores_[0]->measure(ro);
        ChipCoreOutcome& co = out.cores[0];
        co.stallCycles = 0;
        co.effCycles = run.cycles;
        co.ipc = run.ipc();
        co.powerW = energy_[0].evalCounters(run).watts();
        co.freqGhz = co.fMaxGhz = governor_.coreFMaxGhz()[0];
        out.chipCycles = run.cycles;
        out.instrs = run.instrs;
        out.ipc = co.ipc;
        out.powerW = co.powerW;
        out.freqGhz = co.freqGhz;
        out.boost = 0.0;
        out.timedOut = run.timedOut;
        co.run = std::move(run);
        return out;
    }

    // Epoch-lockstep loop. Each core runs cfg_.epochInstrs of its own
    // window per barrier; the barrier then converts aggregate demand
    // into stall backpressure and steps the governor on summed power.
    std::vector<uint64_t> remaining(n, opts.measureInstrs);
    std::vector<uint64_t> take(n, 0);
    std::vector<core::RunResult> epochRun(n);
    std::vector<uint64_t> epochCycles(n, 0);
    std::vector<uint64_t> prevFront(n, 0);
    std::vector<uint64_t> cycAcc(n, 0), stallAcc(n, 0);
    std::vector<uint64_t> instrAcc(n, 0), opsAcc(n, 0), flopsAcc(n, 0);
    std::vector<common::StatSnapshot> statAcc(n);
    std::vector<uint64_t> memDemand(n, 0), l3Demand(n, 0);
    std::vector<double> epochPowerW(n, 0.0);
    for (size_t i = 0; i < n; ++i)
        prevFront[i] = cores_[i]->commitFrontCycle();

    // Telemetry: the chip samples its own tracks and one internal
    // recorder per core, all from this (coordinating) thread at epoch
    // barriers — worker threads never publish, honouring the
    // single-owner contract of obs/timeseries.h.
    obs::TimeSeriesRecorder* rec = opts.recorder;
    std::vector<obs::TimeSeriesRecorder> coreRecs;
    std::vector<obs::TrackId> coreIpcTrack(n), coreStallTrack(n);
    obs::TrackId chipPowerTrack, chipFreqTrack, chipStallTrack,
        chipIpcTrack;
    if (rec != nullptr) {
        chipPowerTrack = rec->counter("chip.power_w", "W");
        chipFreqTrack = rec->counter("chip.freq_ghz", "GHz");
        chipStallTrack = rec->counter("chip.stall_frac", "frac");
        chipIpcTrack = rec->counter("chip.ipc", "ipc");
        coreRecs.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            coreRecs.emplace_back(rec->interval());
            coreIpcTrack[i] = coreRecs[i].counter("ipc", "ipc");
            coreStallTrack[i] =
                coreRecs[i].counter("stall_cycles", "cycles");
        }
    }

    GovernorDecision lastDec;
    lastDec.freqGhz = cfg_.governor.wof.fNomGhz;
    lastDec.boost = 1.0;

    const int jobs = std::max(1, opts.coreJobs);
    for (;;) {
        bool anyLeft = false;
        for (size_t i = 0; i < n; ++i) {
            take[i] = std::min(cfg_.epochInstrs, remaining[i]);
            anyLeft = anyLeft || take[i] > 0;
        }
        if (!anyLeft)
            break;

        forEachCore(n, jobs, [&](size_t i) {
            if (take[i] == 0) {
                epochRun[i] = core::RunResult();
                epochCycles[i] = 0;
                return;
            }
            core::RunOptions ro;
            ro.measureInstrs = take[i];
            epochRun[i] = cores_[i]->measure(ro);
            const uint64_t front = cores_[i]->commitFrontCycle();
            // Unclamped epoch length (RunResult::cycles floors at 1).
            epochCycles[i] = front - prevFront[i];
            prevFront[i] = front;
            epochPowerW[i] =
                energy_[i].evalCounters(epochRun[i]).watts();
        });

        // ---- Barrier: every cross-core interaction happens here, on
        // this thread, in core-index order. ----
        uint64_t epochRawCycles = 0;
        uint64_t epochInstrs = 0;
        double chipPowerW = 0.0;
        for (size_t i = 0; i < n; ++i) {
            epochRawCycles = std::max(epochRawCycles, epochCycles[i]);
            epochInstrs += epochRun[i].instrs;
            const auto& stats = epochRun[i].stats;
            auto statOf = [&stats](const char* name) -> uint64_t {
                auto it = stats.find(name);
                return it == stats.end() ? 0 : it->second;
            };
            memDemand[i] = take[i] ? statOf(kMemAccessStat) : 0;
            l3Demand[i] = take[i] ? statOf(kL3AccessStat) : 0;
            chipPowerW += take[i] ? epochPowerW[i] : 0.0;
        }

        ContentionOutcome cont =
            contention_.step(epochRawCycles, memDemand, l3Demand);
        lastDec = governor_.step(chipPowerW);
        if (lastDec.throttled)
            ++out.throttledEpochs;
        if (lastDec.droopTripped)
            ++out.droopTrips;

        uint64_t chipEffCycles = 0;
        for (size_t i = 0; i < n; ++i) {
            const uint64_t govStall = static_cast<uint64_t>(
                static_cast<double>(epochCycles[i]) *
                lastDec.stallFrac);
            stallAcc[i] += cont.stall[i] + govStall;
            cycAcc[i] += epochCycles[i];
            instrAcc[i] += epochRun[i].instrs;
            opsAcc[i] += epochRun[i].ops;
            flopsAcc[i] += epochRun[i].flops;
            for (const auto& [k, v] : epochRun[i].stats)
                if (k != "cycles")
                    statAcc[i][k] += v;
            remaining[i] -= take[i];
            chipEffCycles =
                std::max(chipEffCycles, cycAcc[i] + stallAcc[i]);
        }
        ++out.epochs;

        if (rec != nullptr) {
            const uint64_t stamp = chipEffCycles;
            rec->sample(chipPowerTrack, stamp, chipPowerW);
            rec->sample(chipFreqTrack, stamp, lastDec.freqGhz);
            rec->sample(chipStallTrack, stamp, lastDec.stallFrac);
            rec->sample(chipIpcTrack, stamp,
                        epochRawCycles
                            ? static_cast<double>(epochInstrs) /
                                  static_cast<double>(epochRawCycles)
                            : 0.0);
            for (size_t i = 0; i < n; ++i) {
                const double coreIpc =
                    epochCycles[i]
                        ? static_cast<double>(epochRun[i].instrs) /
                              static_cast<double>(epochCycles[i])
                        : 0.0;
                coreRecs[i].sample(coreIpcTrack[i], stamp, coreIpc);
                coreRecs[i].sample(
                    coreStallTrack[i], stamp,
                    static_cast<double>(stallAcc[i]));
            }
        }

        if (opts.maxCycles != 0 && chipEffCycles > opts.maxCycles) {
            out.timedOut = true;
            break;
        }
    }

    // Deterministic merge of the per-core recorders, in index order.
    if (rec != nullptr) {
        for (size_t i = 0; i < n; ++i) {
            const std::string prefix =
                "chip.core" + std::to_string(i) + ".";
            for (const auto& track : coreRecs[i].counters()) {
                obs::TrackId id =
                    rec->counter(prefix + track.name, track.unit);
                for (size_t s = 0; s < track.cycle.size(); ++s)
                    rec->sample(id, track.cycle[s], track.value[s]);
            }
        }
    }

    for (size_t i = 0; i < n; ++i) {
        ChipCoreOutcome& co = out.cores[i];
        co.run.cycles = std::max<uint64_t>(cycAcc[i], 1);
        co.run.instrs = instrAcc[i];
        co.run.ops = opsAcc[i];
        co.run.flops = flopsAcc[i];
        co.run.timedOut = out.timedOut;
        co.run.stats = std::move(statAcc[i]);
        co.run.stats["cycles"] = co.run.cycles;
        co.stallCycles = stallAcc[i];
        co.effCycles = cycAcc[i] + stallAcc[i];
        co.ipc = static_cast<double>(co.run.instrs) /
                 static_cast<double>(std::max<uint64_t>(co.effCycles, 1));
        co.powerW = energy_[i].evalCounters(co.run).watts();
        co.freqGhz = governor_.coreFreqGhz(lastDec, i);
        co.fMaxGhz = governor_.coreFMaxGhz()[i];
        out.instrs += co.run.instrs;
        out.chipCycles = std::max(out.chipCycles, co.effCycles);
        out.powerW += co.powerW;
    }
    out.chipCycles = std::max<uint64_t>(out.chipCycles, 1);
    out.ipc = static_cast<double>(out.instrs) /
              static_cast<double>(out.chipCycles);
    out.freqGhz = lastDec.freqGhz;
    out.boost = lastDec.boost;
    return out;
}

void
ChipModel::saveState(BinWriter& w) const
{
    for (const auto& c : cores_)
        c->saveState(w);
    contention_.saveState(w);
    governor_.saveState(w);
}

Status
ChipModel::loadState(BinReader& r)
{
    for (auto& c : cores_)
        if (auto st = c->loadState(r); !st.ok())
            return st;
    if (auto st = contention_.loadState(r); !st.ok())
        return st;
    return governor_.loadState(r);
}

ckpt::Checkpoint
captureChipCheckpoint(
    const ChipModel& chip,
    const std::vector<std::vector<workloads::CheckpointableSource*>>&
        walkers,
    ckpt::CheckpointMeta meta)
{
    P10_ASSERT(walkers.size() ==
                   static_cast<size_t>(chip.numCores()),
               "captureChipCheckpoint: one walker vector per core");
    if (chip.numCores() == 1)
        return ckpt::Checkpoint::capture(chip.coreAt(0), walkers[0],
                                         std::move(meta));

    uint32_t totalWalkers = 0;
    for (const auto& ws : walkers)
        totalWalkers += static_cast<uint32_t>(ws.size());
    meta.numThreads = totalWalkers;

    // Payload: core count and per-core config hashes lead, so restore
    // can reject a wrong-core-count or mixed-config file with a
    // specific error before touching any state.
    BinWriter w;
    w.u32(static_cast<uint32_t>(chip.numCores()));
    for (int i = 0; i < chip.numCores(); ++i)
        w.u64(ckpt::configHash(chip.coreAt(i).config()));
    chip.saveState(w);
    for (const auto& ws : walkers) {
        w.u32(static_cast<uint32_t>(ws.size()));
        for (const auto* src : ws)
            src->saveState(w);
    }
    return ckpt::Checkpoint::fromParts(std::move(meta),
                                       chipConfigHash(chip.config()),
                                       w.takeBytes());
}

Status
restoreChipCheckpoint(
    const ckpt::Checkpoint& ck, ChipModel& chip,
    const std::vector<std::vector<workloads::CheckpointableSource*>>&
        walkers)
{
    if (walkers.size() != static_cast<size_t>(chip.numCores()))
        return Error::invalidArgument(
            "chip checkpoint restore: " +
            std::to_string(chip.numCores()) + " core(s) but " +
            std::to_string(walkers.size()) +
            " walker vector(s) were supplied");
    if (chip.numCores() == 1)
        return ck.restore(chip.coreAt(0), walkers[0]);

    BinReader r(ck.payload());
    const uint32_t nCores = r.u32();
    if (r.failed())
        return Error::invalidArgument(
            "chip checkpoint payload truncated (core count)");
    if (nCores != static_cast<uint32_t>(chip.numCores()))
        return Error::invalidArgument(
            "chip checkpoint has " + std::to_string(nCores) +
            " core(s) but the model has " +
            std::to_string(chip.numCores()));
    for (uint32_t i = 0; i < nCores; ++i) {
        const uint64_t hash = r.u64();
        if (r.failed())
            return Error::invalidArgument(
                "chip checkpoint payload truncated (config hashes)");
        if (hash !=
            ckpt::configHash(chip.coreAt(static_cast<int>(i)).config()))
            return Error::invalidConfig(
                "chip checkpoint core " + std::to_string(i) +
                " was captured under a different core config "
                "(config hash mismatch)");
    }
    if (ck.capturedConfigHash() != chipConfigHash(chip.config()))
        return Error::invalidConfig(
            "chip checkpoint was captured under a different chip "
            "config (chip hash mismatch; checkpoint has '" +
            ck.meta().configName + "')");

    if (auto st = chip.loadState(r); !st.ok())
        return st;
    for (size_t c = 0; c < walkers.size(); ++c) {
        const uint32_t nw = r.u32();
        if (r.failed() || nw != walkers[c].size())
            return Error::invalidArgument(
                "chip checkpoint payload: walker count mismatch on "
                "core " + std::to_string(c));
        for (auto* src : walkers[c])
            if (auto st = src->loadState(r); !st.ok())
                return st;
    }
    if (r.remaining() != 0)
        return Error::invalidArgument(
            "chip checkpoint payload: trailing bytes after state");
    return common::okStatus();
}

} // namespace p10ee::chip
