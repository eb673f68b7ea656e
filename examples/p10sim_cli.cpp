/**
 * @file
 * `p10sim_cli` — the single-run front end over the `p10ee::api`
 * facade: pick a machine, a workload, an SMT level and a window, and
 * get the run's stats and power as a table or CSV. The scripting entry
 * point a downstream user drives parameter sweeps with.
 *
 *   p10sim_cli --config power10 --workload xz --smt 4 \
 *              --instrs 200000 [--cores N] [--csv] [--ablate <group>] \
 *              [--trace-out trace.json] [--out stats.json] \
 *              [--sample-interval 1024] \
 *              [--ckpt-save warm.ckpt | --ckpt-load warm.ckpt]
 *
 * The simulation itself runs through api::Service::runOne — the same
 * code path a `p10d` run request takes — and the --out report is the
 * deterministic api::Service::runReport core (host timing zeroed; real
 * timing goes to stderr) extended with the printed table and the
 * telemetry series.
 *
 * --ckpt-save snapshots the machine after warmup (before the measured
 * window) into a versioned checkpoint file; --ckpt-load restores such
 * a snapshot and skips the warmup entirely. A loaded run's measured
 * window is bit-identical to the saving run's.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "api/args.h"
#include "api/service.h"
#include "common/table.h"
#include "model/dataset.h"
#include "model/proxy.h"
#include "obs/json.h"
#include "obs/perfetto.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "pm/throttle.h"
#include "pm/wof.h"
#include "power/apex.h"
#include "power/energy.h"
#include "workloads/spec_profiles.h"

using namespace p10ee;

int
main(int argc, char** argv)
{
    std::string configName = "power10";
    std::string ablate;
    std::string workload = "perlbench";
    int smt = 1;
    int cores = 1;
    uint64_t instrs = 200000;
    uint64_t warmup = 50000;
    uint64_t seed = 0;
    bool csv = false;
    bool list = false;
    std::string traceOut;
    std::string out;
    std::string ckptSave;
    std::string ckptLoad;
    uint64_t sampleInterval = 1024;

    api::ArgParser parser(
        "p10sim_cli",
        "Run one simulation (machine x workload x SMT) and report "
        "stats and power.");
    parser.str("--config", &configName, "power9|power10",
               "machine (default power10)");
    parser.str("--ablate", &ablate, "group",
               "revert one POWER10 group (branch_operation|latency_bw|"
               "l2_cache|decode_double_vsx|queues)");
    parser.str("--workload", &workload, "name",
               "SPECint-like profile or trace:<path> (default "
               "perlbench)");
    parser.intRange("--smt", &smt, 1, 8,
                    "hardware threads (1, 2, 4 or 8; default 1)");
    parser.intRange("--cores", &cores, 1, 16,
                    "chip width: cores sharing the L3/memory fabric "
                    "and the chip governor (default 1 = bare core)");
    api::stdflags::instrs(parser, &instrs);
    api::stdflags::warmup(parser, &warmup);
    api::stdflags::seed(parser, &seed);
    parser.boolean("--csv", &csv, "machine-readable output");
    parser.str("--trace-out", &traceOut, "path",
               "write a Chrome/Perfetto trace of the run");
    api::stdflags::out(parser, &out);
    parser.u64("--sample-interval", &sampleInterval,
               "telemetry interval in cycles (default 1024)", 1);
    parser.str("--ckpt-save", &ckptSave, "path",
               "checkpoint the machine after warmup, then measure");
    parser.str("--ckpt-load", &ckptLoad, "path",
               "restore a warmup checkpoint and skip the warmup");
    parser.boolean("--list", &list, "list workloads and exit");
    if (auto st = parser.parse(argc, argv); !st) {
        std::fprintf(stderr, "p10sim_cli: error: %s\n",
                     st.error().message.c_str());
        std::fputs(parser.help().c_str(), stderr);
        return 2;
    }
    if (parser.helpRequested()) {
        std::fputs(parser.help().c_str(), stdout);
        return 0;
    }
    if (list) {
        for (const auto& p : workloads::specint2017())
            std::printf("%s\n", p.name.c_str());
        for (const auto& p : workloads::extraGroups())
            std::printf("%s\n", p.name.c_str());
        return 0;
    }

    api::RunRequest req;
    // --ablate is sugar for the facade's "ablate:<group>" spelling.
    req.config = ablate.empty() ? configName : "ablate:" + ablate;
    req.workload = workload;
    req.smt = smt;
    req.cores = cores;
    req.instrs = instrs;
    req.warmup = warmup;
    req.seed = seed;
    req.ckptSave = ckptSave;
    req.ckptLoad = ckptLoad;

    obs::TimeSeriesRecorder rec(sampleInterval);
    const bool telemetry = !traceOut.empty() || !out.empty();
    if (telemetry) {
        req.recorder = &rec;
        // Power tracks need per-cycle timings; only pay for them when a
        // trace or report was requested. Per-instruction timings are a
        // single-core diagnostic — chip runs sample chip.* tracks
        // instead.
        req.collectTimings = (cores == 1);
        req.sampleInterval = sampleInterval;
    }

    const auto wallStart = std::chrono::steady_clock::now();
    api::Service service;
    auto outcomeOr = service.runOne(req);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wallStart;
    if (!outcomeOr) {
        const common::Error& e = outcomeOr.error();
        const bool usageClass =
            e.code == common::ErrorCode::InvalidConfig ||
            e.code == common::ErrorCode::InvalidArgument ||
            e.code == common::ErrorCode::NotFound;
        std::fprintf(stderr, "p10sim_cli: error: %s\n",
                     e.str().c_str());
        if (usageClass)
            std::fputs(parser.help().c_str(), stderr);
        return usageClass ? 2 : 1;
    }
    const api::RunOutcome& outcome = outcomeOr.value();
    const core::RunResult& run = outcome.run;
    const power::PowerBreakdown& power = outcome.power;
    if (!ckptLoad.empty())
        std::fprintf(stderr,
                     "restored checkpoint: %s (warmup skipped)\n",
                     ckptLoad.c_str());
    if (!ckptSave.empty())
        std::fprintf(stderr, "wrote checkpoint: %s\n",
                     ckptSave.c_str());
    std::fprintf(stderr, "run: %.2fs host wall, %.2f host-MIPS\n",
                 wall.count(),
                 wall.count() > 0.0
                     ? static_cast<double>(outcome.warmupSimulated +
                                           run.instrs) /
                           wall.count() / 1e6
                     : 0.0);

    power::EnergyModel energy(outcome.config);
    if (telemetry && !run.timings.empty()) {
        // Reference interval power from the detailed model, plus the
        // quantized counter-proxy estimate next to it — the live
        // governor's view vs the model it approximates.
        power::ApexExtractor apex(energy, sampleInterval);
        const std::vector<float> intervals = apex.intervalPower(run);
        auto powerTrack = rec.counter("power.total_pj", "pJ/cyc");
        for (size_t i = 0; i < intervals.size(); ++i)
            rec.sample(powerTrack, (i + 1) * sampleInterval,
                       intervals[i]);

        auto ds = model::buildWindowDataset({run}, energy,
                                            sampleInterval);
        if (!ds.samples.empty()) {
            auto proxy = model::designProxy(
                ds, 16, energy.staticPj());
            auto proxyTrack = rec.counter("power.proxy_pj", "pJ/cyc");
            auto refTrack = rec.counter("power.ref_pj", "pJ/cyc");
            for (size_t i = 0; i < ds.samples.size(); ++i) {
                const auto& s = ds.samples[i];
                const uint64_t cyc = (i + 1) * sampleInterval;
                rec.sample(proxyTrack, cyc,
                           proxy.model.predict(s.features) +
                               energy.staticPj());
                rec.sample(refTrack, cyc,
                           s.target + energy.staticPj());
            }
        }

        if (!intervals.empty()) {
            double mean = 0.0;
            float peak = intervals.front();
            for (float v : intervals) {
                mean += v;
                peak = std::max(peak, v);
            }
            mean /= static_cast<double>(intervals.size());

            pm::ThrottleParams tp;
            tp.budgetPj = mean * 0.9;
            tp.intervalCycles = static_cast<int>(sampleInterval);
            pm::runThrottleLoop(intervals, tp, &rec);

            pm::DroopParams dp;
            pm::simulateDroop(energy.perCyclePower(run), dp, &rec);

            // WOF: the frequency headroom each interval's effective
            // capacitance leaves relative to the run's own peak.
            pm::Wof wof{pm::WofParams{}};
            auto wofTrack = rec.counter("pm.wof.freq_ghz", "GHz");
            for (size_t i = 0; i < intervals.size(); ++i) {
                const double ratio =
                    peak > 0.0f ? intervals[i] / peak : 1.0;
                rec.sample(wofTrack, (i + 1) * sampleInterval,
                           wof.optimize(ratio).freqGhz);
            }
        }
    }

    common::Table t("p10sim: " + workload + " on " +
                    outcome.config.name + " SMT" + std::to_string(smt) +
                    (cores >= 2
                         ? " x " + std::to_string(cores) + " cores"
                         : ""));
    t.header({"metric", "value"});
    t.row({"instructions", std::to_string(run.instrs)});
    t.row({"cycles", std::to_string(run.cycles)});
    t.row({"ipc", common::fmt(run.ipc(), 4)});
    t.row({"branch_mpki", common::fmt(run.perKilo("bp.mispredict"), 2)});
    t.row({"l1d_mpki", common::fmt(run.perKilo("l1d.miss"), 2)});
    t.row({"l2_mpki", common::fmt(run.perKilo("l2.miss"), 2)});
    t.row({"l3_mpki", common::fmt(run.perKilo("l3.miss"), 2)});
    t.row({"fusion_per_ki", common::fmt(run.perKilo("fusion.pair"), 2)});
    t.row({"power_w", common::fmt(power.watts(), 3)});
    t.row({"clock_w", common::fmt(power.clockPj * 0.004, 3)});
    t.row({"switch_w", common::fmt(power.switchPj * 0.004, 3)});
    t.row({"leak_w", common::fmt(power.leakPj * 0.004, 3)});
    t.row({"ipc_per_w", common::fmt(run.ipc() / power.watts(), 4)});
    if (cores >= 2) {
        t.row({"chip_freq_ghz", common::fmt(outcome.chip.freqGhz, 4)});
        t.row({"chip_boost", common::fmt(outcome.chip.boost, 4)});
        t.row({"chip_epochs", std::to_string(outcome.chip.epochs)});
        t.row({"throttled_epochs",
               std::to_string(outcome.chip.throttledEpochs)});
        t.row({"droop_trips", std::to_string(outcome.chip.droopTrips)});
    }
    if (csv)
        t.printCsv();
    else
        t.print();

    if (cores >= 2) {
        common::Table ct("chip cores");
        ct.header({"core", "cycles", "stall_cycles", "eff_cycles",
                   "instrs", "ipc", "power_w", "freq_ghz"});
        for (size_t i = 0; i < outcome.chip.cores.size(); ++i) {
            const chip::ChipCoreOutcome& co = outcome.chip.cores[i];
            ct.row({std::to_string(i), std::to_string(co.run.cycles),
                    std::to_string(co.stallCycles),
                    std::to_string(co.effCycles),
                    std::to_string(co.run.instrs),
                    common::fmt(co.ipc, 4), common::fmt(co.powerW, 3),
                    common::fmt(co.freqGhz, 4)});
        }
        if (csv)
            ct.printCsv();
        else
            ct.print();
    }

    // Output-path failures after a finished run are recoverable
    // diagnostics (exit 1), not usage errors (exit 2): the simulation
    // results above are still valid.
    if (auto st = obs::distinctOutputPaths({traceOut, out});
        !st.ok()) {
        std::fprintf(stderr, "p10sim_cli: error: %s\n",
                     st.error().message.c_str());
        return 1;
    }
    if (!traceOut.empty()) {
        auto st = obs::writePerfettoTrace(rec, traceOut, 4.0);
        if (!st.ok()) {
            std::fprintf(stderr, "p10sim_cli: error: %s\n",
                         st.error().message.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote trace: %s (%zu samples)\n",
                     traceOut.c_str(), rec.sampleCount());
    }
    if (!out.empty()) {
        // The deterministic runReport core (what a p10d run request
        // returns) plus the CLI extras: the printed table and the
        // telemetry series. Host timing stays on stderr.
        obs::JsonReport report = api::Service::runReport(req, outcome);
        report.addTable(t);
        report.addTimeSeries(rec);
        auto st = report.writeTo(out);
        if (!st.ok()) {
            std::fprintf(stderr, "p10sim_cli: error: %s\n",
                         st.error().message.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote report: %s\n", out.c_str());
    }
    return 0;
}
