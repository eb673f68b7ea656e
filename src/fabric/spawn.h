/**
 * @file
 * Spawn-local worker fleets: fork/exec `p10d` children on ephemeral
 * ports and manage their lifecycle.
 *
 * This is the fabric's test and single-host substrate. `p10fleet
 * --spawn N`, the chaos suite, and the benchmark's `fleet` workload all
 * need real worker *processes* (a killed thread proves nothing about a
 * killed worker), so this module forks the actual daemon binary, parses
 * the "p10d: listening on 127.0.0.1:<port>" announcement from its piped
 * stdout, and hands back (pid, port) pairs the chaos harness can
 * SIGKILL / SIGSTOP mid-sweep.
 *
 * All failures are structured Errors (binary missing, exec failure,
 * announcement timeout); a failed spawn reaps its child.
 */

#ifndef P10EE_FABRIC_SPAWN_H
#define P10EE_FABRIC_SPAWN_H

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"

namespace p10ee::fabric {

/** One forked p10d child. */
struct SpawnedWorker
{
    pid_t pid = -1;
    uint16_t port = 0;
    /** Read end of the child's stdout pipe; kept open for the child's
        lifetime (closing it would SIGPIPE later writes) and closed by
        reapWorker(). */
    int stdoutFd = -1;
};

/**
 * Fork/exec @p p10dBinary with `--port 0` plus @p extraArgs, wait (up
 * to @p announceTimeoutMs) for the listening announcement, and return
 * the child. The child's stderr is inherited, so daemon diagnostics
 * land in the parent's stream.
 */
common::Expected<SpawnedWorker> spawnWorker(
    const std::string& p10dBinary,
    const std::vector<std::string>& extraArgs = {},
    int announceTimeoutMs = 15000);

/** Deliver @p sig to the worker (SIGKILL/SIGSTOP/SIGCONT/SIGTERM —
    the chaos harness's verbs). No-op for an already-reaped worker. */
void signalWorker(const SpawnedWorker& worker, int sig);

/**
 * Wait for the child to exit (delivering SIGKILL first when @p kill),
 * close its pipe, and return its wait status (-1 when already reaped).
 */
int reapWorker(SpawnedWorker& worker, bool kill = false);

} // namespace p10ee::fabric

#endif // P10EE_FABRIC_SPAWN_H
