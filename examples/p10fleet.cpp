/**
 * @file
 * `p10fleet` — distributed sweep driver over the fabric coordinator:
 * shard a JSON sweep spec across a fleet of `p10d` workers with
 * lease-based retry, work redistribution and graceful degradation.
 *
 *   p10fleet --spec sweep.json --out report.json --spawn 4
 *   p10fleet --spec sweep.json --workers 127.0.0.1:7410,127.0.0.1:7411
 *   p10fleet --spec sweep.json --fleet fleet.json --cache-dir cache/
 *
 * Worker fleets come from --workers (host:port CSV), --fleet (a JSON
 * {"workers":[...]} file), or --spawn N (fork N p10d children on
 * ephemeral ports — the single-host and chaos-test substrate). With
 * --cache-dir, the coordinator serves its content-addressed shard
 * cache to the whole fleet as a remote tier.
 *
 * The merged report is byte-identical to a single-process
 * `p10sweep_cli --spec <same spec>` run whenever no shard was skipped
 * — worker kills, delayed heartbeats and reassignment only move work
 * around; they never change the bytes. Scheduling-dependent telemetry
 * goes to stderr and the --fleet-stats sidecar.
 *
 * Chaos harness (spawned fleets only): --chaos-kill "i@ms,..." sends
 * SIGKILL to worker i at ms milliseconds after the sweep starts;
 * --chaos-stop "i@ms+dur,..." suspends worker i with SIGSTOP at ms and
 * resumes it with SIGCONT dur milliseconds later.
 *
 * Exit codes: 2 for flag/spec validation errors, 1 for recoverable
 * post-validation failures (spawn failure, unwritable outputs), 0
 * otherwise — a degraded sweep (dead workers, zero reachable workers)
 * still exits 0; that is the point of the fabric.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/args.h"
#include "api/service.h"
#include "common/table.h"
#include "fabric/fleet.h"
#include "fabric/spawn.h"
#include "obs/metrics.h"

using namespace p10ee;

namespace {

/** One scheduled chaos action against a spawned worker. */
struct ChaosEvent
{
    size_t worker = 0;
    uint64_t atMs = 0;
    int sig = 0;
};

/** Parse "i@ms" or "i@ms+dur" items out of a CSV chaos spec. Kill
    specs forbid the +dur suffix; stop specs require it (expanding to a
    SIGSTOP/SIGCONT pair). */
bool
parseChaos(const std::string& csv, bool stop, size_t fleetSize,
           std::vector<ChaosEvent>* out, std::string* err)
{
    size_t start = 0;
    for (size_t pos = 0; pos <= csv.size(); ++pos) {
        if (pos != csv.size() && csv[pos] != ',')
            continue;
        const std::string item = csv.substr(start, pos - start);
        start = pos + 1;
        if (item.empty())
            continue;
        const size_t at = item.find('@');
        const size_t plus = item.find('+');
        if (at == std::string::npos ||
            (stop ? plus == std::string::npos || plus < at
                  : plus != std::string::npos)) {
            *err = "chaos item '" + item + "' must be " +
                   (stop ? std::string("worker@ms+durms")
                         : std::string("worker@ms"));
            return false;
        }
        try {
            const size_t worker = std::stoul(item.substr(0, at));
            const uint64_t atMs = std::stoull(
                item.substr(at + 1, stop ? plus - at - 1
                                         : std::string::npos));
            if (worker >= fleetSize) {
                *err = "chaos item '" + item + "' names worker " +
                       std::to_string(worker) + " of a " +
                       std::to_string(fleetSize) + "-worker fleet";
                return false;
            }
            if (stop) {
                const uint64_t dur =
                    std::stoull(item.substr(plus + 1));
                out->push_back({worker, atMs, SIGSTOP});
                out->push_back({worker, atMs + dur, SIGCONT});
            } else {
                out->push_back({worker, atMs, SIGKILL});
            }
        } catch (const std::exception&) {
            *err = "chaos item '" + item + "' has malformed numbers";
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string specPath;
    std::string out;
    std::string workersCsv;
    std::string fleetFile;
    std::string cacheDir;
    std::string fleetStatsOut;
    std::string traceOut;
    std::string metricsOut;
    std::string chaosKill;
    std::string chaosStop;
    std::string p10dBinary;
    int spawnCount = 0;
    int localJobs = 1;
    uint64_t heartbeatMs = 200;
    uint64_t leaseMs = 0;
    bool csv = false;

    api::ArgParser parser(
        "p10fleet",
        "Run a sweep spec across a fleet of p10d workers with "
        "lease-based retry and graceful degradation.");
    parser.str("--spec", &specPath, "path",
               "sweep specification (JSON; required)");
    api::stdflags::out(parser, &out);
    parser.str("--workers", &workersCsv, "host:port,...",
               "worker addresses (CSV)");
    parser.str("--fleet", &fleetFile, "path",
               "fleet file: {\"workers\":[\"host:port\",...]}");
    parser.intRange("--spawn", &spawnCount, 0, 64,
                    "fork this many local p10d workers on ephemeral "
                    "ports");
    parser.str("--p10d", &p10dBinary, "path",
               "p10d binary for --spawn (default: alongside p10fleet)");
    api::stdflags::cacheDir(parser, &cacheDir);
    parser.str("--fleet-stats", &fleetStatsOut, "path",
               "write scheduling-dependent fleet telemetry sidecar");
    parser.str("--trace-out", &traceOut, "path",
               "record a distributed flight trace and write the merged "
               "Perfetto timeline (sidecar; never changes the report)");
    parser.str("--metrics-out", &metricsOut, "path",
               "write the process metrics registry as a report sidecar");
    parser.intRange("--local-jobs", &localJobs, 1, 256,
                    "pool threads for degraded in-process execution");
    parser.u64("--heartbeat-ms", &heartbeatMs,
               "worker heartbeat interval (0 disables liveness "
               "tracking)",
               0, 60000);
    parser.u64("--lease-ms", &leaseMs,
               "per-attempt lease deadline (0 derives from the spec's "
               "max_cycles)",
               0, 3600000);
    parser.str("--chaos-kill", &chaosKill, "i@ms,...",
               "SIGKILL spawned worker i at ms after start");
    parser.str("--chaos-stop", &chaosStop, "i@ms+dur,...",
               "SIGSTOP spawned worker i at ms, SIGCONT dur ms later");
    parser.boolean("--csv", &csv, "machine-readable summary");
    if (auto st = parser.parse(argc, argv); !st) {
        std::fprintf(stderr, "p10fleet: error: %s\n",
                     st.error().message.c_str());
        std::fputs(parser.help().c_str(), stderr);
        return 2;
    }
    if (parser.helpRequested()) {
        std::fputs(parser.help().c_str(), stdout);
        return 0;
    }
    auto fail = [&parser](const std::string& message) {
        std::fprintf(stderr, "p10fleet: error: %s\n", message.c_str());
        std::fputs(parser.help().c_str(), stderr);
        return 2;
    };
    if (specPath.empty())
        return fail("--spec is required");
    if (spawnCount > 0 && (!workersCsv.empty() || !fleetFile.empty()))
        return fail("--spawn excludes --workers/--fleet");
    if ((!chaosKill.empty() || !chaosStop.empty()) && spawnCount == 0)
        return fail("--chaos-kill/--chaos-stop require --spawn");

    auto specOr = sweep::SweepSpec::fromJsonFile(specPath);
    if (!specOr)
        return fail(specOr.error().str());
    const sweep::SweepSpec& spec = specOr.value();

    fabric::FleetOptions opts;
    opts.cacheDir = cacheDir;
    opts.heartbeatMs = heartbeatMs;
    opts.leaseMs = leaseMs;
    opts.localJobs = localJobs;
    opts.trace = !traceOut.empty();

    if (!workersCsv.empty()) {
        auto listOr = fabric::parseWorkerList(workersCsv);
        if (!listOr)
            return fail(listOr.error().str());
        opts.workers = std::move(listOr.value());
    }
    if (!fleetFile.empty()) {
        auto listOr = fabric::parseFleetFile(fleetFile);
        if (!listOr)
            return fail(listOr.error().str());
        opts.workers.insert(opts.workers.end(),
                            listOr.value().begin(),
                            listOr.value().end());
    }

    std::vector<ChaosEvent> chaos;
    {
        const size_t fleetSize = spawnCount > 0
                                     ? static_cast<size_t>(spawnCount)
                                     : opts.workers.size();
        std::string err;
        if (!parseChaos(chaosKill, /*stop=*/false, fleetSize, &chaos,
                        &err) ||
            !parseChaos(chaosStop, /*stop=*/true, fleetSize, &chaos,
                        &err))
            return fail(err);
        std::stable_sort(chaos.begin(), chaos.end(),
                         [](const ChaosEvent& a, const ChaosEvent& b) {
                             return a.atMs < b.atMs;
                         });
    }

    // Spawn-local mode: fork the fleet before building the runner.
    std::vector<fabric::SpawnedWorker> spawned;
    if (spawnCount > 0) {
        if (p10dBinary.empty()) {
            const std::string self = argv[0];
            const size_t slash = self.rfind('/');
            p10dBinary = slash == std::string::npos
                             ? "./p10d"
                             : self.substr(0, slash + 1) + "p10d";
        }
        for (int i = 0; i < spawnCount; ++i) {
            auto workerOr = fabric::spawnWorker(p10dBinary);
            if (!workerOr) {
                std::fprintf(stderr, "p10fleet: error: %s\n",
                             workerOr.error().str().c_str());
                for (fabric::SpawnedWorker& w : spawned)
                    fabric::reapWorker(w, /*kill=*/true);
                return 1;
            }
            spawned.push_back(workerOr.value());
            opts.workers.push_back(
                {"127.0.0.1", workerOr.value().port});
            std::fprintf(stderr,
                         "p10fleet: spawned worker %d (pid %d, port "
                         "%u)\n",
                         i, static_cast<int>(workerOr.value().pid),
                         static_cast<unsigned>(workerOr.value().port));
        }
    }

    const uint64_t total = spec.shardCount();
    uint64_t done = 0;
    opts.onProgress = [&done, total](const api::ProgressEvent& ev) {
        ++done;
        const std::string retries =
            ev.retries > 0
                ? " (retries " + std::to_string(ev.retries) + ")"
                : "";
        std::fprintf(stderr, "[%llu/%llu] %s %s%s\n",
                     static_cast<unsigned long long>(done),
                     static_cast<unsigned long long>(total),
                     ev.key.c_str(), ev.status.c_str(),
                     retries.c_str());
    };
    opts.onWarning = [](const std::string& message) {
        std::fprintf(stderr, "p10fleet: warning: %s\n",
                     message.c_str());
    };

    // Chaos timer thread: fires the schedule against the spawned
    // children while the sweep runs; a completed sweep cancels the
    // tail of the schedule.
    std::mutex chaosMu;
    std::condition_variable chaosCv;
    bool chaosDone = false;
    std::thread chaosThread;
    const auto sweepStart = std::chrono::steady_clock::now();
    if (!chaos.empty()) {
        chaosThread = std::thread([&] {
            std::unique_lock<std::mutex> lock(chaosMu);
            for (const ChaosEvent& ev : chaos) {
                const auto when =
                    sweepStart + std::chrono::milliseconds(ev.atMs);
                if (chaosCv.wait_until(lock, when,
                                       [&] { return chaosDone; }))
                    return;
                std::fprintf(
                    stderr,
                    "p10fleet: chaos: signal %d -> worker %zu "
                    "(pid %d) at %llu ms\n",
                    ev.sig, ev.worker,
                    static_cast<int>(spawned[ev.worker].pid),
                    static_cast<unsigned long long>(ev.atMs));
                fabric::signalWorker(spawned[ev.worker], ev.sig);
            }
        });
    }

    fabric::FleetRunner runner(spec, std::move(opts));
    auto resultOr = runner.run();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sweepStart)
            .count();

    if (chaosThread.joinable()) {
        {
            std::lock_guard<std::mutex> lock(chaosMu);
            chaosDone = true;
        }
        chaosCv.notify_all();
        chaosThread.join();
    }
    for (fabric::SpawnedWorker& w : spawned) {
        fabric::signalWorker(w, SIGTERM);
        fabric::reapWorker(w);
    }

    if (!resultOr) {
        const common::Error& e = resultOr.error();
        const bool usageClass =
            e.code == common::ErrorCode::InvalidConfig ||
            e.code == common::ErrorCode::InvalidArgument ||
            e.code == common::ErrorCode::NotFound;
        std::fprintf(stderr, "p10fleet: error: %s\n", e.str().c_str());
        return usageClass ? 2 : 1;
    }
    const sweep::SweepResult& result = resultOr.value();
    const fabric::FleetStats& stats = runner.stats();

    std::fprintf(
        stderr,
        "fleet: %zu shards (%llu ok, %llu failed, %llu skipped) on "
        "%llu workers (%llu dead) in %.2fs; %llu reassigned, %llu "
        "run locally\n",
        result.shards.size(),
        static_cast<unsigned long long>(result.okCount),
        static_cast<unsigned long long>(result.failed),
        static_cast<unsigned long long>(stats.skipped),
        static_cast<unsigned long long>(stats.workers),
        static_cast<unsigned long long>(stats.workersDead), wall,
        static_cast<unsigned long long>(stats.reassigned),
        static_cast<unsigned long long>(stats.localShards));
    if (!cacheDir.empty())
        std::fprintf(
            stderr,
            "cache: %llu cached, %llu simulated; %llu remote hits, "
            "%llu remote puts (%s)\n",
            static_cast<unsigned long long>(result.cachedShards),
            static_cast<unsigned long long>(result.simulatedShards),
            static_cast<unsigned long long>(stats.remoteCacheHits),
            static_cast<unsigned long long>(stats.remoteCachePuts),
            cacheDir.c_str());

    common::Table t("p10fleet: " + specPath);
    t.header({"metric", "value"});
    t.row({"shards", std::to_string(result.shards.size())});
    t.row({"ok", std::to_string(result.okCount)});
    t.row({"failed", std::to_string(result.failed)});
    t.row({"skipped", std::to_string(stats.skipped)});
    t.row({"workers", std::to_string(stats.workers)});
    t.row({"workers_dead", std::to_string(stats.workersDead)});
    t.row({"reassigned", std::to_string(stats.reassigned)});
    t.row({"local_shards", std::to_string(stats.localShards)});
    t.row({"geomean_ipc", common::fmt(result.geoMeanIpc(), 4)});
    t.row({"mean_power_w", common::fmt(result.meanPowerW(), 3)});
    if (csv)
        t.printCsv();
    else
        t.print();

    if (!out.empty()) {
        obs::JsonReport report =
            api::Service::mergedReport(spec, result);
        auto st = report.writeTo(out);
        if (!st.ok()) {
            std::fprintf(stderr, "p10fleet: error: %s\n",
                         st.error().message.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote report: %s\n", out.c_str());
    }
    if (!fleetStatsOut.empty()) {
        obs::JsonReport sidecar = fabric::FleetRunner::fleetStatsReport(
            result, stats, "p10fleet");
        auto st = sidecar.writeTo(fleetStatsOut);
        if (!st.ok()) {
            std::fprintf(stderr, "p10fleet: error: %s\n",
                         st.error().message.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote fleet stats: %s\n",
                     fleetStatsOut.c_str());
    }
    if (!traceOut.empty()) {
        auto st = obs::writeTextFile(traceOut, runner.traceJson());
        if (!st.ok()) {
            std::fprintf(stderr, "p10fleet: error: %s\n",
                         st.error().message.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote trace: %s\n", traceOut.c_str());
    }
    if (!metricsOut.empty()) {
        obs::JsonReport sidecar = obs::metrics().toReport("p10fleet");
        auto st = sidecar.writeTo(metricsOut);
        if (!st.ok()) {
            std::fprintf(stderr, "p10fleet: error: %s\n",
                         st.error().message.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote metrics: %s\n", metricsOut.c_str());
    }
    return 0;
}
