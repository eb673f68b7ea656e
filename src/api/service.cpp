#include "api/service.h"

#include <vector>

#include "chip/chip.h"
#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "common/table.h"
#include "sweep/cache.h"
#include "trace/replay.h"
#include "workloads/registry.h"

namespace p10ee::api {

using common::Error;
using common::Expected;
using common::Status;

Status
RunRequest::validate() const
{
    std::string problems;
    std::string firstField;
    // Each check names the request key it guards; the first failing
    // key rides on Error::field so the NDJSON error line and the CLIs
    // can point at the offending input, while the message still
    // accumulates every problem.
    auto bad = [&](const std::string& fld, const std::string& p) {
        if (!problems.empty())
            problems += "; ";
        problems += p;
        if (firstField.empty())
            firstField = fld;
    };
    if (config.empty())
        bad("config", "config must name a machine");
    if (workload.empty())
        bad("workload", "workload must name a profile");
    if (smt != 1 && smt != 2 && smt != 4 && smt != 8)
        bad("smt", "smt must be 1, 2, 4 or 8 (got " +
                       std::to_string(smt) + ")");
    if (cores < 1 || cores > 16)
        bad("cores", "cores must be in [1, 16] (got " +
                         std::to_string(cores) + ")");
    if (cores >= 2 && collectTimings)
        bad("cores", "per-instruction timings are a single-core "
                     "diagnostic (cores >= 2 cannot collect them)");
    if (instrs == 0)
        bad("instrs", "instrs must be > 0");
    if (!ckptSave.empty() && !ckptLoad.empty())
        bad("ckpt-save", "ckpt-save and ckpt-load are mutually "
                         "exclusive");
    if (!problems.empty())
        return Error{common::ErrorCode::InvalidArgument,
                     "run request: " + problems, firstField};
    return common::okStatus();
}

Expected<RunOutcome>
Service::runOne(const RunRequest& req) const
{
    if (Status st = req.validate(); !st)
        return st.error();

    // Name resolution is the sweep layer's — one spelling of
    // "power9" / "power10" / "ablate:<group>" across every entry path.
    Expected<core::CoreConfig> cfgOr =
        sweep::SweepSpec::resolveConfig(req.config);
    if (!cfgOr)
        return cfgOr.error();
    core::CoreConfig cfg = std::move(cfgOr.value());
    if (Status st = cfg.validate(); !st)
        return st.error();

    // Workload resolution goes through the frontend registry: built-in
    // synthetic profiles and external formats ("trace:<path>") share
    // one spelling across every entry path.
    trace::registerTraceFrontend();
    Expected<workloads::WorkloadProfile> profOr =
        workloads::resolveWorkload(req.workload);
    if (!profOr)
        return profOr.error();
    workloads::WorkloadProfile profile = std::move(profOr.value());
    // A distinct seed reruns the same statistical workload over fresh
    // stream realizations; derivation matches the sweep seed axis, so
    // any sweep shard replays in isolation with the same seed value.
    if (req.seed != 0)
        profile.seed = common::splitSeed(profile.seed, req.seed);

    // One body at every width: a 1-core chip is the bare core in
    // measurement, telemetry and checkpoint bytes (tests/test_chip.cpp
    // pins it), so cores == 1 needs no path of its own.
    Expected<workloads::ChipSources> srcOr =
        workloads::makeChipSources(profile, req.cores, req.smt);
    if (!srcOr)
        return srcOr.error();
    const workloads::ChipSources& sources = srcOr.value();

    chip::ChipConfig chipCfg;
    chipCfg.cores.assign(static_cast<size_t>(req.cores), cfg);
    chipCfg.seed = profile.seed;
    if (Status st = chipCfg.validate(); !st)
        return st.error();
    chip::ChipModel model(std::move(chipCfg));

    RunOutcome out;
    out.config = cfg;
    out.profile = profile;
    out.cores = req.cores;

    const uint64_t warmupPerCore =
        req.warmup * static_cast<uint64_t>(req.smt);
    model.beginRun(sources.threads);
    if (!req.ckptLoad.empty()) {
        Expected<ckpt::Checkpoint> ckOr =
            ckpt::Checkpoint::load(req.ckptLoad);
        if (!ckOr)
            return ckOr.error();
        const ckpt::Checkpoint& ck = ckOr.value();
        // The chip/core shape, config hashes and thread counts are
        // checked by restoreChipCheckpoint; the workload identity must
        // be checked here, since a walker state can be in-range for
        // more than one static code.
        if (ck.meta().workload != req.workload ||
            ck.meta().seed != profile.seed)
            return Error::invalidArgument(
                "checkpoint " + req.ckptLoad + " was captured for "
                "workload '" + ck.meta().workload + "' seed " +
                std::to_string(ck.meta().seed) + ", not '" +
                req.workload + "' seed " +
                std::to_string(profile.seed));
        if (Status st =
                chip::restoreChipCheckpoint(ck, model, sources.walkers);
            !st)
            return st.error();
        out.warmupSimulated = 0;
    } else {
        model.advance(warmupPerCore);
        out.warmupSimulated =
            warmupPerCore * static_cast<uint64_t>(req.cores);
        if (!req.ckptSave.empty()) {
            ckpt::CheckpointMeta meta;
            meta.configName = cfg.name;
            meta.workload = req.workload;
            meta.warmupInstrs = warmupPerCore;
            meta.seed = profile.seed;
            auto ck = chip::captureChipCheckpoint(model, sources.walkers,
                                                  meta);
            if (Status st = ck.save(req.ckptSave); !st)
                return st.error();
        }
    }

    chip::ChipRunOptions opts;
    opts.measureInstrs = req.instrs;
    opts.maxCycles = req.maxCycles;
    opts.recorder = req.recorder;
    opts.collectTimings = req.collectTimings;
    out.chip = model.measure(opts);
    if (out.chip.timedOut)
        return Error::timeout(
            "run exceeded cycle budget of " +
            std::to_string(req.maxCycles) + " cycles");

    // Roll the cores up into the single-run fields so scalar consumers
    // (runReport, CLI summary) see chip-scope numbers at any width.
    out.run.cycles = out.chip.chipCycles;
    out.run.instrs = out.chip.instrs;
    power::EnergyModel energy(cfg);
    for (const chip::ChipCoreOutcome& co : out.chip.cores) {
        out.run.ops += co.run.ops;
        out.run.flops += co.run.flops;
        for (const auto& [name, value] : co.run.stats)
            if (name != "cycles")
                out.run.stats[name] += value;
        power::PowerBreakdown pb = energy.evalCounters(co.run);
        out.power.totalPj += pb.totalPj;
        out.power.clockPj += pb.clockPj;
        out.power.switchPj += pb.switchPj;
        out.power.leakPj += pb.leakPj;
        for (const auto& [comp, pj] : pb.perComponent)
            out.power.perComponent[comp] += pj;
    }
    out.run.stats["cycles"] = out.run.cycles;
    // Only 1-core requests collect timings (RunRequest::validate).
    out.run.timings = std::move(out.chip.cores[0].run.timings);
    return out;
}

Expected<sweep::SweepResult>
Service::runSweep(const sweep::SweepSpec& spec,
                  const SweepOptions& opts) const
{
    sweep::SweepSpec effective = spec;
    if (opts.maxCyclesOverride > 0 &&
        (effective.maxCycles == 0 ||
         opts.maxCyclesOverride < effective.maxCycles))
        effective.maxCycles = opts.maxCyclesOverride;

    sweep::SweepRunner runner(std::move(effective));
    runner.cacheDir = opts_.cacheDir;
    runner.onProgress = opts.onProgress;
    runner.cancel = opts.cancel;
    return runner.run(opts.jobs);
}

Expected<ShardOutcome>
Service::runShard(const sweep::SweepSpec& spec, uint64_t index,
                  const ShardOptions& opts) const
{
    if (!spec.shardReportsDir.empty())
        return Error::invalidArgument(
            "single-shard execution cannot honour shard_reports_dir");
    sweep::SweepSpec effective = spec;
    if (opts.maxCyclesOverride > 0 &&
        (effective.maxCycles == 0 ||
         opts.maxCyclesOverride < effective.maxCycles))
        effective.maxCycles = opts.maxCyclesOverride;

    Expected<std::vector<sweep::ShardSpec>> shardsOr =
        effective.expand();
    if (!shardsOr)
        return shardsOr.error();
    const std::vector<sweep::ShardSpec>& shards = shardsOr.value();
    if (index >= shards.size())
        return Error::invalidArgument(
            "shard index " + std::to_string(index) +
            " out of range (sweep has " +
            std::to_string(shards.size()) + " shards)");
    const sweep::ShardSpec& shard = shards[static_cast<size_t>(index)];
    const uint64_t key = sweep::ShardCache::shardKey(effective, shard);

    std::optional<sweep::ShardCache> cache;
    if (!opts_.cacheDir.empty()) {
        cache.emplace(opts_.cacheDir);
        if (common::Status st = cache->prepare(); !st)
            return st.error();
        if (auto hit = cache->lookup(effective, shard)) {
            ShardOutcome out;
            out.result = std::move(*hit);
            out.result.fromCache = true;
            out.entry =
                sweep::ShardCache::encodeEntry(effective, shard,
                                               out.result);
            return out;
        }
    }
    if (opts.remoteLookup) {
        if (auto bytes = opts.remoteLookup(key)) {
            // Full validation before trusting remote bytes: container,
            // key, checksum, shard identity. Anything wrong is a miss.
            if (auto hit = sweep::ShardCache::decodeEntry(
                    *bytes, effective, shard)) {
                ShardOutcome out;
                out.result = std::move(*hit);
                out.result.fromCache = true;
                out.entry = std::move(*bytes);
                if (cache)
                    (void)cache->writeBytes(key, out.entry);
                return out;
            }
        }
    }

    sweep::SweepRunner runner(effective);
    ShardOutcome out;
    out.result = runner.runShard(shard);
    out.entry =
        sweep::ShardCache::encodeEntry(effective, shard, out.result);
    if (cache)
        (void)cache->insert(effective, shard, out.result);
    if (opts.remoteStore)
        opts.remoteStore(key, out.entry);
    return out;
}

obs::JsonReport
Service::mergedReport(const sweep::SweepSpec& spec,
                      const sweep::SweepResult& result)
{
    return sweep::SweepRunner::merge(spec, result, kSweepReportTool);
}

obs::JsonReport
Service::cacheStatsReport(const sweep::SweepResult& result)
{
    return sweep::SweepRunner::cacheStats(result, kSweepReportTool);
}

obs::JsonReport
Service::runReport(const RunRequest& req, const RunOutcome& outcome)
{
    obs::JsonReport report;
    report.meta().tool = "p10sim";
    report.meta().config = outcome.config.name;
    report.meta().workload = req.workload;
    report.meta().seed = outcome.profile.seed;
    report.meta().git = obs::gitDescribe();
    // Deterministic by construction: host timing never enters; the
    // accounted window (warmup budget + measured instructions) is a
    // pure function of the request even when a checkpoint restore
    // skipped the warmup simulation.
    report.meta().wallSeconds = 0.0;
    report.meta().hostMips = 0.0;
    report.meta().simInstrs = simulatedInstrs(
        req.warmup, req.smt, outcome.cores, outcome.run.instrs);
    report.addScalar("ipc", outcome.ipc());
    report.addScalar("cycles",
                     static_cast<double>(outcome.run.cycles));
    report.addScalar("instrs",
                     static_cast<double>(outcome.run.instrs));
    report.addScalar("power_w", outcome.powerW());
    report.addScalar("clock_w", outcome.power.clockPj * 0.004);
    report.addScalar("switch_w", outcome.power.switchPj * 0.004);
    report.addScalar("leak_w", outcome.power.leakPj * 0.004);
    report.addScalar("ipc_per_w", outcome.ipcPerW());
    for (const auto& [comp, pj] : outcome.power.perComponent)
        report.addScalar("power.pj_per_cycle." + comp, pj);
    // Chip-scope extras, gated so 1-core reports keep their exact
    // pre-chip bytes (the bare-core identity contract).
    if (outcome.cores >= 2) {
        const chip::ChipResult& chip = outcome.chip;
        report.addScalar("chip.cores",
                         static_cast<double>(outcome.cores));
        report.addScalar("chip.epochs",
                         static_cast<double>(chip.epochs));
        report.addScalar("chip.freq_ghz", chip.freqGhz);
        report.addScalar("chip.boost", chip.boost);
        report.addScalar("chip.throttled_epochs",
                         static_cast<double>(chip.throttledEpochs));
        report.addScalar("chip.droop_trips",
                         static_cast<double>(chip.droopTrips));
        common::Table t("chip cores");
        t.header({"core", "cycles", "stall_cycles", "eff_cycles",
                  "instrs", "ipc", "power_w", "freq_ghz"});
        for (size_t i = 0; i < chip.cores.size(); ++i) {
            const chip::ChipCoreOutcome& co = chip.cores[i];
            t.row({std::to_string(i),
                   std::to_string(co.run.cycles),
                   std::to_string(co.stallCycles),
                   std::to_string(co.effCycles),
                   std::to_string(co.run.instrs),
                   common::fmt(co.ipc, 4), common::fmt(co.powerW, 3),
                   common::fmt(co.freqGhz, 4)});
        }
        report.addTable(t);
    }
    return report;
}

} // namespace p10ee::api
