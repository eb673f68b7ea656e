/**
 * @file
 * `p10sweep_cli` — parallel sweep driver over the `p10ee::api` facade:
 * expand a JSON sweep spec into (config x workload x SMT x seed)
 * shards, run them on a work-stealing pool, and fold the results into
 * one deterministic p10ee-report/1 document.
 *
 *   p10sweep_cli --spec sweep.json --jobs 8 --out report.json [--csv]
 *                [--cache-dir cache/]
 *
 * The merged report is byte-identical for a given spec regardless of
 * --jobs — and regardless of entry path: a library runSweep() call or
 * a `p10d` sweep request for the same spec produces the same bytes
 * (api::kSweepReportTool pins the tool stamp). With --cache-dir, shard
 * results are memoized on disk (content-addressed, see sweep/cache.h):
 * a warm re-run simulates zero shards and still emits the byte-
 * identical merged report. Host timing (wall seconds, host MIPS) and
 * cache provenance are real but live on stderr (or the --cache-stats
 * sidecar), never in the merged artifact.
 *
 * Exit codes: 2 for flag/spec validation errors (matching p10sim_cli),
 * 1 for recoverable post-validation failures (output collisions,
 * unwritable outputs), 0 otherwise — failed shards are recorded in the
 * report, not turned into a process failure.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "api/args.h"
#include "api/service.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "sweep/pool.h"
#include "workloads/spec_profiles.h"

using namespace p10ee;

int
main(int argc, char** argv)
{
    std::string specPath;
    std::string out;
    std::string cacheDir;
    std::string cacheStatsOut;
    std::string metricsOut;
    int jobs = sweep::ThreadPool::defaultThreads();
    bool csv = false;
    bool list = false;

    api::ArgParser parser(
        "p10sweep_cli",
        "Run a sweep spec on a thread pool and emit the canonical "
        "merged p10ee-report/1 document.");
    parser.str("--spec", &specPath, "path",
               "sweep specification (JSON; required; workloads may "
               "name profiles or trace:<path> containers)");
    api::stdflags::jobs(parser, &jobs);
    api::stdflags::out(parser, &out);
    api::stdflags::cacheDir(parser, &cacheDir);
    parser.str("--cache-stats", &cacheStatsOut, "path",
               "write cache-provenance sidecar report (requires "
               "--cache-dir)");
    parser.str("--metrics-out", &metricsOut, "path",
               "write the process metrics registry as a report sidecar");
    parser.boolean("--csv", &csv, "machine-readable summary");
    parser.boolean("--list", &list,
                   "list workload profiles and exit");
    if (auto st = parser.parse(argc, argv); !st) {
        std::fprintf(stderr, "p10sweep_cli: error: %s\n",
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
    auto fail = [&parser](const std::string& message) {
        std::fprintf(stderr, "p10sweep_cli: error: %s\n",
                     message.c_str());
        std::fputs(parser.help().c_str(), stderr);
        return 2;
    };
    if (specPath.empty())
        return fail("--spec is required");
    if (!cacheStatsOut.empty() && cacheDir.empty())
        return fail("--cache-stats requires --cache-dir");

    auto specOr = sweep::SweepSpec::fromJsonFile(specPath);
    if (!specOr)
        return fail(specOr.error().str());
    const sweep::SweepSpec& spec = specOr.value();

    api::Service service(api::Service::Options{cacheDir});
    api::SweepOptions sweepOpts;
    sweepOpts.jobs = jobs;
    const uint64_t total = spec.shardCount();
    uint64_t done = 0;
    sweepOpts.onProgress = [&done,
                            total](const api::ProgressEvent& ev) {
        // Serialized by the runner; completion order is scheduling-
        // dependent, which is fine for a progress stream.
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

    const auto wallStart = std::chrono::steady_clock::now();
    auto resultOr = service.runSweep(spec, sweepOpts);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wallStart)
                            .count();
    if (!resultOr) {
        const common::Error& e = resultOr.error();
        const bool usageClass =
            e.code == common::ErrorCode::InvalidConfig ||
            e.code == common::ErrorCode::InvalidArgument ||
            e.code == common::ErrorCode::NotFound;
        std::fprintf(stderr, "p10sweep_cli: error: %s\n",
                     e.str().c_str());
        // Bad names/fields are usage errors (2); collisions and
        // unwritable outputs are recoverable runtime errors (1).
        return usageClass ? 2 : 1;
    }
    const sweep::SweepResult& result = resultOr.value();

    // Host timing is reported here and only here: the merged artifact
    // must stay a pure function of the spec.
    std::fprintf(stderr,
                 "sweep: %zu shards (%llu ok, %llu failed) on %d "
                 "jobs in %.2fs, %.2f host-MIPS\n",
                 result.shards.size(),
                 static_cast<unsigned long long>(result.okCount),
                 static_cast<unsigned long long>(result.failed), jobs,
                 wall,
                 wall > 0.0
                     ? static_cast<double>(result.simInstrs) / wall / 1e6
                     : 0.0);
    if (!cacheDir.empty())
        std::fprintf(
            stderr, "cache: %llu cached, %llu simulated (%s)\n",
            static_cast<unsigned long long>(result.cachedShards),
            static_cast<unsigned long long>(result.simulatedShards),
            cacheDir.c_str());

    common::Table t("p10sweep: " + specPath);
    t.header({"metric", "value"});
    t.row({"shards", std::to_string(result.shards.size())});
    t.row({"ok", std::to_string(result.okCount)});
    t.row({"failed", std::to_string(result.failed)});
    t.row({"retries", std::to_string(result.retriesTotal)});
    t.row({"geomean_ipc", common::fmt(result.geoMeanIpc(), 4)});
    t.row({"mean_power_w", common::fmt(result.meanPowerW(), 3)});
    if (csv)
        t.printCsv();
    else
        t.print();

    if (!out.empty()) {
        obs::JsonReport report = api::Service::mergedReport(spec, result);
        auto st = report.writeTo(out);
        if (!st.ok()) {
            std::fprintf(stderr, "p10sweep_cli: error: %s\n",
                         st.error().message.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote report: %s\n", out.c_str());
    }
    if (!cacheStatsOut.empty()) {
        obs::JsonReport stats = api::Service::cacheStatsReport(result);
        auto st = stats.writeTo(cacheStatsOut);
        if (!st.ok()) {
            std::fprintf(stderr, "p10sweep_cli: error: %s\n",
                         st.error().message.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote cache stats: %s\n",
                     cacheStatsOut.c_str());
    }
    if (!metricsOut.empty()) {
        obs::JsonReport sidecar =
            obs::metrics().toReport("p10sweep_cli");
        auto st = sidecar.writeTo(metricsOut);
        if (!st.ok()) {
            std::fprintf(stderr, "p10sweep_cli: error: %s\n",
                         st.error().message.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote metrics: %s\n", metricsOut.c_str());
    }
    return 0;
}
