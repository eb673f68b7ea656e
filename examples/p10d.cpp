/**
 * @file
 * `p10d` — the long-running simulation service over `p10ee::api`.
 *
 *   p10d [--port N] [--cache-dir dir] [--executors N] [--jobs N]
 *        [--queue-capacity N]
 *
 * Listens on 127.0.0.1 (port 0 = pick an ephemeral port) and serves
 * newline-delimited JSON requests (see src/service/protocol.h and
 * scripts/p10_client.py). The bound address is announced on stdout as
 *
 *   p10d: listening on 127.0.0.1:<port>
 *
 * which is the line client scripts parse to find an ephemeral port.
 *
 * SIGTERM/SIGINT (or a `shutdown` request) trigger a graceful drain:
 * no new requests, every accepted one finishes and is answered, then
 * the process exits 0. Bad requests never take the daemon down — they
 * come back as structured `error` events (exit-2 has no meaning here;
 * a daemon's failures are per-request).
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "api/args.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "service/daemon.h"

using namespace p10ee;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

} // namespace

int
main(int argc, char** argv)
{
    uint64_t port = 0;
    std::string cacheDir;
    std::string metricsOut;
    int executors = 2;
    int jobsPerRequest = 1;
    uint64_t queueCapacity = 64;

    api::ArgParser parser(
        "p10d",
        "Simulation daemon: serves sweep/run requests over a local "
        "TCP socket through the one api::Service entry path.");
    parser.u64("--port", &port,
               "TCP port on 127.0.0.1 (default 0: ephemeral)", 0,
               65535);
    api::stdflags::cacheDir(parser, &cacheDir);
    parser.intRange("--executors", &executors, 1, 64,
                    "concurrent requests (executor threads)");
    parser.intRange("--jobs", &jobsPerRequest, 1, 256,
                    "sweep pool threads per request");
    parser.u64("--queue-capacity", &queueCapacity,
               "max queued requests before overload rejection", 1,
               4096);
    parser.str("--metrics-out", &metricsOut, "path",
               "write the final metrics registry as a report sidecar "
               "after the drain (live values: the `metrics` request)");
    if (auto st = parser.parse(argc, argv); !st) {
        std::fprintf(stderr, "p10d: error: %s\n",
                     st.error().message.c_str());
        std::fputs(parser.help().c_str(), stderr);
        return 2;
    }
    if (parser.helpRequested()) {
        std::fputs(parser.help().c_str(), stdout);
        return 0;
    }

    service::DaemonOptions opts;
    opts.port = static_cast<uint16_t>(port);
    opts.cacheDir = cacheDir;
    opts.executors = executors;
    opts.jobsPerRequest = jobsPerRequest;
    opts.queueCapacity = static_cast<size_t>(queueCapacity);

    service::Daemon daemon(opts);
    if (auto st = daemon.start(); !st) {
        std::fprintf(stderr, "p10d: error: %s\n",
                     st.error().str().c_str());
        return 1;
    }

    struct sigaction sa = {};
    sa.sa_handler = onSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    std::printf("p10d: listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(daemon.port()));
    std::fflush(stdout);

    // The signal handler only flips a flag; the drain (which joins
    // threads — nothing a handler may do) happens here on the main
    // thread. A protocol-level `shutdown` request flips draining() the
    // same way.
    while (g_stop == 0 && !daemon.draining())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // Lifecycle notices are structured event-log lines (stderr JSON);
    // the stdout announce line above stays plain text — client scripts
    // and ci.sh scrape it verbatim.
    obs::eventLog("info", "p10d", "draining");
    daemon.waitUntilStopped();
    if (!metricsOut.empty()) {
        obs::JsonReport sidecar = obs::metrics().toReport("p10d");
        if (auto st = sidecar.writeTo(metricsOut); !st.ok())
            obs::eventLog("warn", "p10d",
                          "cannot write metrics sidecar: " +
                              st.error().message,
                          {{"path", metricsOut}});
        else
            obs::eventLog("info", "p10d", "wrote metrics sidecar",
                          {{"path", metricsOut}});
    }
    obs::eventLog("info", "p10d", "drained, exiting");
    return 0;
}
