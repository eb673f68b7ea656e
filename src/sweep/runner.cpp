#include "sweep/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>

#include "chip/chip.h"
#include "common/assert.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/core.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "power/energy.h"
#include "sweep/cache.h"
#include "sweep/pool.h"
#include "workloads/registry.h"
#include "workloads/synthetic.h"

namespace p10ee::sweep {

using common::Error;
using common::Expected;
using common::Status;

double
SweepResult::geoMeanIpc() const
{
    double logSum = 0.0;
    uint64_t n = 0;
    for (const ShardResult& s : shards)
        if (s.ok && s.ipc > 0.0) {
            logSum += std::log(s.ipc);
            ++n;
        }
    return n == 0 ? 0.0 : std::exp(logSum / static_cast<double>(n));
}

double
SweepResult::meanPowerW() const
{
    double sum = 0.0;
    uint64_t n = 0;
    for (const ShardResult& s : shards)
        if (s.ok) {
            sum += s.powerW;
            ++n;
        }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

namespace {

/** Shard-report filename: the key with path separators flattened. */
std::string
shardReportPath(const std::string& dir, const ShardSpec& shard)
{
    std::string flat = shard.key();
    for (char& c : flat)
        if (c == '/')
            c = '_';
    return dir + "/" + flat + ".json";
}

/** The '/'-separated fields of a shard key
    ("config/workload/smtN/seedK", plus "/cN" for chip shards). */
std::vector<std::string>
keyFields(const std::string& key)
{
    std::vector<std::string> parts;
    size_t start = 0;
    for (size_t pos = 0; pos <= key.size(); ++pos)
        if (pos == key.size() || key[pos] == '/') {
            parts.push_back(key.substr(start, pos - start));
            start = pos + 1;
        }
    return parts;
}

} // namespace

ShardResult
SweepRunner::runShard(const ShardSpec& shard) const
{
    ShardResult res;
    res.index = shard.index;
    res.key = shard.key();
    res.cores = std::max(shard.cores, 1);
    if (!shard.profile.frontend.empty()) {
        // Provenance for externally ingested workloads: the recorded
        // name (scheme prefix stripped) plus the content hash that
        // keyed the cache, so a report states exactly which bytes it
        // measured.
        res.traceName =
            shard.profile.name.size() > shard.profile.frontend.size() + 1
                ? shard.profile.name.substr(
                      shard.profile.frontend.size() + 1)
                : shard.profile.name;
        res.traceHash = shard.profile.contentHash;
    }

    // Every shard owns a generator derived from (master seed, shard
    // index), so any one shard replays in isolation — the campaign
    // engine's idiom, keyed on the sweep's shard identity.
    common::Xoshiro infraRng(
        common::splitSeed(spec_.seed, shard.index));

    const auto wallStart = std::chrono::steady_clock::now();
    int attempts = 0;
    for (;;) {
        // Synthetic transient infrastructure failure (tests of the
        // retry machinery); drawn before the run like a dispatch that
        // never reached the simulator.
        if (spec_.infraFailProb > 0.0 &&
            infraRng.chance(spec_.infraFailProb)) {
            if (attempts >= spec_.maxRetries) {
                res.error = Error::transient(
                    "shard " + res.key + ": infrastructure failure "
                    "persisted through " +
                    std::to_string(attempts) + " retries");
                break;
            }
            ++attempts;
            // Exponential backoff, modeled deterministically: burn a
            // doubling number of generator draws per attempt (the
            // wall-clock harness analogue would sleep 2^attempts
            // units before re-dispatching).
            for (int b = 0; b < (1 << attempts); ++b)
                infraRng.next();
            continue;
        }

        const int nCores = res.cores;
        Expected<workloads::ChipSources> sources =
            workloads::makeChipSources(shard.profile, nCores, shard.smt);
        if (!sources) {
            // A workload whose backing file vanished or changed between
            // expansion and execution is a recorded shard failure, not
            // a crash — the sweep stays index-complete.
            res.error = Error(sources.error().code,
                              "shard " + res.key + ": " +
                                  sources.error().message);
            break;
        }

        chip::ChipConfig chipCfg;
        chipCfg.cores.assign(static_cast<size_t>(nCores), shard.config);
        chipCfg.seed = spec_.seed;
        chip::ChipModel model(chipCfg);
        chip::ChipRunOptions opts;
        opts.measureInstrs = spec_.instrs;
        opts.maxCycles = spec_.maxCycles;

        // The recorder is created here, on the worker thread, so its
        // single-owner binding lands on this shard's thread.
        std::unique_ptr<obs::TimeSeriesRecorder> rec;
        if (spec_.sampleInterval > 0) {
            rec = std::make_unique<obs::TimeSeriesRecorder>(
                spec_.sampleInterval);
            opts.recorder = rec.get();
        }

        // Coarse core-loop timing behind a sampling gate: every
        // kPhaseSampleEvery-th simulated shard (process-wide) observes
        // the wall time of the timing loop. Sampled so the steady state
        // costs two clock reads per ~16 shards; the histogram is
        // telemetry only (metrics sidecars / the `metrics` request) and
        // never touches the shard result.
        static const obs::MetricId simPhaseUs =
            obs::metrics().histogram("sweep.phase.sim_us");
        static std::atomic<uint64_t> phaseTick{0};
        constexpr uint64_t kPhaseSampleEvery = 16;
        const bool phaseSampled =
            phaseTick.fetch_add(1, std::memory_order_relaxed) %
                kPhaseSampleEvery ==
            0;
        const auto simStart = std::chrono::steady_clock::now();

        model.beginRun(sources.value().threads);
        model.advance(spec_.warmup * static_cast<uint64_t>(shard.smt));
        const chip::ChipResult run = model.measure(opts);
        if (phaseSampled)
            obs::metrics().observe(
                simPhaseUs,
                static_cast<uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - simStart)
                        .count()));
        if (run.timedOut) {
            // A cycle-budget overrun is deterministic — retrying would
            // reproduce it, so it is recorded immediately.
            res.error = Error::timeout(
                "shard " + res.key + ": exceeded cycle budget of " +
                std::to_string(spec_.maxCycles) + " cycles");
            break;
        }

        res.ok = true;
        res.cycles = run.chipCycles;
        res.instrs = run.instrs;
        res.ipc = run.ipc;
        res.powerW = run.powerW;
        res.ipcPerW = run.powerW > 0.0 ? res.ipc / run.powerW : 0.0;
        if (nCores >= 2) {
            res.chipFreqGhz = run.freqGhz;
            res.chipBoost = run.boost;
            res.throttledEpochs = run.throttledEpochs;
            res.droopTrips = run.droopTrips;
            res.coreRows.reserve(run.cores.size());
            for (const chip::ChipCoreOutcome& co : run.cores) {
                api::ShardCoreRow row;
                row.cycles = co.run.cycles;
                row.stallCycles = co.stallCycles;
                row.effCycles = co.effCycles;
                row.instrs = co.run.instrs;
                row.ipc = co.ipc;
                row.powerW = co.powerW;
                row.freqGhz = co.freqGhz;
                res.coreRows.push_back(row);
            }
        }

        if (rec) {
            // 1-core shards surface the bare core's IPC telemetry;
            // chip shards surface the chip-rollup IPC track.
            const std::string ipcTrack =
                nCores >= 2 ? "chip.ipc" : "core.ipc";
            for (const auto& track : rec->counters())
                if (track.name == ipcTrack) {
                    res.ipcX.reserve(track.cycle.size());
                    res.ipcY.reserve(track.value.size());
                    for (size_t i = 0; i < track.cycle.size(); ++i) {
                        res.ipcX.push_back(
                            static_cast<double>(track.cycle[i]));
                        res.ipcY.push_back(track.value[i]);
                    }
                }
        }

        if (!spec_.shardReportsDir.empty()) {
            obs::JsonReport report;
            report.meta().tool = "p10sweep_shard";
            report.meta().config = shard.configName;
            report.meta().workload = shard.profile.name;
            report.meta().seed = shard.profile.seed;
            report.meta().git = obs::gitDescribe();
            report.addScalar("ipc", res.ipc);
            report.addScalar("cycles",
                             static_cast<double>(res.cycles));
            report.addScalar("instrs",
                             static_cast<double>(res.instrs));
            report.addScalar("power_w", res.powerW);
            report.addScalar("ipc_per_w", res.ipcPerW);
            if (rec)
                report.addTimeSeries(*rec);
            auto st = report.writeTo(
                shardReportPath(spec_.shardReportsDir, shard));
            if (!st.ok()) {
                // A lost side artifact degrades the shard to a
                // recorded failure; the sweep itself continues.
                res.ok = false;
                res.error = st.error();
            }
        }
        break;
    }
    res.retries = attempts;
    res.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wallStart)
                          .count();
    return res;
}

ShardResult
SweepRunner::runCached(const ShardSpec& shard,
                       const ShardCache* cache) const
{
    if (cache) {
        if (std::optional<ShardResult> hit = cache->lookup(spec_, shard)) {
            hit->fromCache = true;
            return std::move(*hit);
        }
    }
    ShardResult res = runShard(shard);
    // Best-effort: an unwritable cache degrades to not caching; it must
    // never fail the sweep.
    if (cache)
        (void)cache->insert(spec_, shard, res);
    return res;
}

Expected<SweepResult>
SweepRunner::run(int jobs)
{
    Expected<std::vector<ShardSpec>> expanded = spec_.expand();
    if (!expanded)
        return expanded.error();
    const std::vector<ShardSpec>& shards = expanded.value();

    std::unique_ptr<ShardCache> cache;
    if (!cacheDir.empty()) {
        if (!spec_.shardReportsDir.empty())
            return Error::invalidArgument(
                "cache directory and shard_reports_dir are mutually "
                "exclusive: a cached shard replays its result without "
                "re-simulating, so it cannot reproduce per-shard "
                "report files");
        cache = std::make_unique<ShardCache>(cacheDir);
        if (Status st = cache->prepare(); !st)
            return st.error();
    }

    if (!spec_.shardReportsDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(spec_.shardReportsDir, ec);
        if (ec)
            return Error::invalidArgument(
                "cannot create shard report directory '" +
                spec_.shardReportsDir + "': " + ec.message());
        // Keys are unique by construction; this guards the flattening
        // above against ever mapping two shards onto one file.
        std::vector<std::string> paths;
        paths.reserve(shards.size());
        for (const ShardSpec& s : shards)
            paths.push_back(shardReportPath(spec_.shardReportsDir, s));
        if (Status st = obs::distinctOutputPaths(paths); !st)
            return st.error();
    }

    // Hold one source per distinct file-backed workload for the whole
    // run. Its container stays in the process-wide shared cache, so
    // every shard replays it instead of reloading and re-verifying the
    // file (at --jobs 1 no shard would otherwise overlap the next). A
    // hold that fails is dropped: the shards report their own errors.
    std::vector<std::unique_ptr<workloads::CheckpointableSource>> held;
    std::set<std::string> heldPaths;
    for (const ShardSpec& s : shards) {
        if (s.profile.frontend.empty() ||
            !heldPaths.insert(s.profile.sourcePath).second)
            continue;
        Expected<std::unique_ptr<workloads::CheckpointableSource>> src =
            workloads::makeSource(s.profile, 0);
        if (src)
            held.push_back(std::move(src.value()));
    }

    std::vector<ShardResult> results(shards.size());

    std::mutex progressMu;
    ThreadPool pool(jobs);
    pool.parallelFor(shards.size(), [&](uint64_t i) {
        ShardResult shard;
        if (cancel != nullptr &&
            cancel->load(std::memory_order_relaxed)) {
            // Cooperative cancellation: record without simulating. The
            // result stays index-complete so the caller can still
            // account every shard; it is just not publishable.
            shard.index = shards[i].index;
            shard.key = shards[i].key();
            shard.error = Error::cancelled(
                "shard " + shard.key + ": sweep cancelled");
        } else {
            shard = runCached(shards[i], cache.get());
        }
        if (onProgress) {
            api::ProgressEvent ev;
            ev.index = shard.index;
            ev.total = shards.size();
            ev.key = shard.key;
            ev.ok = shard.ok;
            ev.status = shard.ok
                            ? "ok"
                            : common::errorCodeName(shard.error.code);
            ev.retries = shard.retries;
            ev.fromCache = shard.fromCache;
            std::lock_guard<std::mutex> lk(progressMu);
            onProgress(ev);
        }
        // Slot i is this task's alone — results land by index, which
        // is what makes the fold scheduling-independent.
        results[i] = std::move(shard);
    });
    return fold(spec_, shards, std::move(results));
}

SweepResult
SweepRunner::fold(const SweepSpec& spec,
                  const std::vector<ShardSpec>& shards,
                  std::vector<ShardResult> results)
{
    P10_ASSERT(results.size() == shards.size(),
               "fold: one result per expanded shard required");
    SweepResult result;
    result.shards = std::move(results);
    for (const ShardResult& s : result.shards) {
        result.retriesTotal += static_cast<uint64_t>(s.retries);
        if (s.fromCache)
            ++result.cachedShards;
        else
            ++result.simulatedShards;
        if (s.error.code == common::ErrorCode::Cancelled)
            ++result.cancelledShards;
        if (s.ok) {
            ++result.okCount;
            const ShardSpec& shard = shards[s.index];
            result.simInstrs += api::simulatedInstrs(
                spec.warmup, shard.smt, std::max(shard.cores, 1),
                s.instrs);
        } else {
            ++result.failed;
        }
    }
    return result;
}

obs::JsonReport
SweepRunner::merge(const SweepSpec& spec, const SweepResult& result,
                   const std::string& tool)
{
    obs::JsonReport report;
    report.meta().tool = tool;
    report.meta().seed = spec.seed;
    report.meta().git = obs::gitDescribe();
    // Byte-determinism: every field of the merged report must be a
    // pure function of the spec. Wall-clock and host throughput never
    // are, so they are pinned to zero here (the CLI reports real
    // timing on stderr); simulated instruction counts ARE
    // deterministic and stay.
    report.meta().wallSeconds = 0.0;
    report.meta().hostMips = 0.0;
    report.meta().simInstrs = result.simInstrs;

    report.addScalar("sweep.shards",
                     static_cast<double>(result.shards.size()));
    report.addScalar("sweep.ok", static_cast<double>(result.okCount));
    report.addScalar("sweep.failed",
                     static_cast<double>(result.failed));
    report.addScalar("sweep.retries",
                     static_cast<double>(result.retriesTotal));
    report.addScalar("sweep.geomean_ipc", result.geoMeanIpc());
    report.addScalar("sweep.mean_power_w", result.meanPowerW());

    common::Table t("sweep shards");
    t.header({"shard", "config", "workload", "smt", "seed", "status",
              "retries", "cycles", "ipc", "power_w"});
    for (const ShardResult& s : result.shards) {
        // Split the key back into the table's axis columns.
        const std::vector<std::string> parts = keyFields(s.key);
        const std::string config = parts.size() > 0 ? parts[0] : "";
        const std::string workload = parts.size() > 1 ? parts[1] : "";
        const std::string smt =
            parts.size() > 2 && parts[2].size() > 3
                ? parts[2].substr(3)
                : "";
        const std::string seed =
            parts.size() > 3 && parts[3].size() > 4
                ? parts[3].substr(4)
                : "";
        t.row({std::to_string(s.index), config, workload, smt, seed,
               s.ok ? "ok" : common::errorCodeName(s.error.code),
               std::to_string(s.retries), std::to_string(s.cycles),
               common::fmt(s.ipc, 4), common::fmt(s.powerW, 3)});
    }
    report.addTable(t);

    // Trace-workload provenance: which recorded bytes each trace:*
    // shard measured. Deduplicated in index order so the table is a
    // pure function of the spec; the content hash is rendered as fixed
    // 16-digit hex because report scalars are doubles and would round
    // a 64-bit value.
    bool anyTrace = false;
    for (const ShardResult& s : result.shards)
        if (!s.traceName.empty())
            anyTrace = true;
    if (anyTrace) {
        common::Table tt("trace workloads");
        tt.header({"workload", "trace", "content_hash"});
        std::vector<std::string> seenWorkloads;
        for (const ShardResult& s : result.shards) {
            if (s.traceName.empty())
                continue;
            const std::vector<std::string> parts = keyFields(s.key);
            const std::string workload =
                parts.size() > 1 ? parts[1] : "";
            bool seen = false;
            for (const std::string& w : seenWorkloads)
                if (w == workload)
                    seen = true;
            if (seen)
                continue;
            seenWorkloads.push_back(workload);
            std::string hex;
            for (int shift = 60; shift >= 0; shift -= 4)
                hex.push_back(
                    "0123456789abcdef"[(s.traceHash >> shift) & 0xf]);
            tt.row({workload, s.traceName, hex});
        }
        report.addTable(tt);
    }

    // Chip-scope rollup: emitted only when the sweep actually ran
    // multi-core shards, so 1-core sweeps keep the exact historical
    // report bytes (the bare-core identity contract).
    bool anyChip = false;
    for (const ShardResult& s : result.shards)
        if (s.cores >= 2)
            anyChip = true;
    if (anyChip) {
        uint64_t chipShards = 0;
        common::Table ct("chip shards");
        ct.header({"shard", "cores", "status", "chip_cycles", "instrs",
                   "ipc", "power_w", "freq_ghz", "boost",
                   "throttled_epochs", "droop_trips"});
        for (const ShardResult& s : result.shards) {
            if (s.cores < 2)
                continue;
            ++chipShards;
            ct.row({std::to_string(s.index), std::to_string(s.cores),
                    s.ok ? "ok" : common::errorCodeName(s.error.code),
                    std::to_string(s.cycles), std::to_string(s.instrs),
                    common::fmt(s.ipc, 4), common::fmt(s.powerW, 3),
                    common::fmt(s.chipFreqGhz, 4),
                    common::fmt(s.chipBoost, 4),
                    std::to_string(s.throttledEpochs),
                    std::to_string(s.droopTrips)});
        }
        report.addTable(ct);

        common::Table cc("chip cores");
        cc.header({"shard", "core", "cycles", "stall_cycles",
                   "eff_cycles", "instrs", "ipc", "power_w",
                   "freq_ghz"});
        for (const ShardResult& s : result.shards) {
            if (s.cores < 2 || !s.ok)
                continue;
            for (size_t i = 0; i < s.coreRows.size(); ++i) {
                const api::ShardCoreRow& c = s.coreRows[i];
                cc.row({std::to_string(s.index), std::to_string(i),
                        std::to_string(c.cycles),
                        std::to_string(c.stallCycles),
                        std::to_string(c.effCycles),
                        std::to_string(c.instrs), common::fmt(c.ipc, 4),
                        common::fmt(c.powerW, 3),
                        common::fmt(c.freqGhz, 4)});
            }
        }
        report.addTable(cc);
        report.addScalar("chip.shards",
                         static_cast<double>(chipShards));
    }

    for (const ShardResult& s : result.shards)
        if (!s.ipcX.empty())
            report.addSeries("shard." + s.key + ".ipc", "ipc", s.ipcX,
                             s.ipcY);
    return report;
}

obs::JsonReport
SweepRunner::cacheStats(const SweepResult& result,
                        const std::string& tool)
{
    obs::JsonReport report;
    report.meta().tool = tool;
    report.meta().git = obs::gitDescribe();
    report.meta().wallSeconds = 0.0;
    report.meta().hostMips = 0.0;
    report.addScalar("sweep.shards",
                     static_cast<double>(result.shards.size()));
    report.addScalar("sweep.cached",
                     static_cast<double>(result.cachedShards));
    report.addScalar("sweep.simulated",
                     static_cast<double>(result.simulatedShards));
    return report;
}

} // namespace p10ee::sweep
