#include "fabric/fleet.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/rng.h"
#include "fabric/wire.h"
#include "obs/eventlog.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/protocol.h"
#include "sweep/pool.h"

namespace p10ee::fabric {

using common::Error;
using common::Expected;
using common::Status;

namespace {

Expected<WorkerAddress>
parseAddress(const std::string& text)
{
    const size_t colon = text.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= text.size())
        return Error::invalidArgument("worker address '" + text +
                                      "' must be host:port");
    WorkerAddress addr;
    addr.host = text.substr(0, colon);
    uint64_t port = 0;
    for (size_t i = colon + 1; i < text.size(); ++i) {
        const char c = text[i];
        if (c < '0' || c > '9')
            return Error::invalidArgument(
                "worker address '" + text + "' has a non-numeric port");
        port = port * 10 + static_cast<uint64_t>(c - '0');
        if (port > 65535)
            return Error::invalidArgument("worker address '" + text +
                                          "' port exceeds 65535");
    }
    if (port == 0)
        return Error::invalidArgument("worker address '" + text +
                                      "' port must be non-zero");
    addr.port = static_cast<uint16_t>(port);
    return addr;
}

/** Dial host:port with a connect timeout, Nagle off; -1 on any
    failure. */
int
tcpConnect(const std::string& host, uint16_t port, int timeoutMs)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                      &hints, &res) != 0)
        return -1;
    int fd = -1;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        const int flags = ::fcntl(fd, F_GETFL, 0);
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
        if (rc != 0 && errno == EINPROGRESS) {
            pollfd pfd{fd, POLLOUT, 0};
            rc = ::poll(&pfd, 1, timeoutMs);
            if (rc == 1 && (pfd.revents & POLLOUT) != 0) {
                int err = 0;
                socklen_t len = sizeof(err);
                ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
                rc = err == 0 ? 0 : -1;
            } else {
                rc = -1;
            }
        }
        if (rc == 0) {
            ::fcntl(fd, F_SETFL, flags); // back to blocking
            service::setNoDelay(fd);
            break;
        }
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    return fd;
}

/** Outcome of one leased shard attempt. */
enum class Attempt
{
    Pending,
    Success,  ///< shard_done decoded and recorded
    SoftFail, ///< worker answered with an error event (stays healthy)
    HardFail  ///< lease/heartbeat/connection/protocol failure
};

/** Fleet fault-machinery instrumentation, interned once per process.
    Scheduling-dependent by construction — the registry feeds sidecars
    and the daemon's `metrics` reply, never the merged report. */
struct FleetMetrics
{
    obs::MetricId leaseExpiries =
        obs::metrics().counter("fleet.lease_expiries");
    obs::MetricId heartbeatSilences =
        obs::metrics().counter("fleet.heartbeat_silences");
    obs::MetricId redials = obs::metrics().counter("fleet.redials");
    obs::MetricId requeues = obs::metrics().counter("fleet.requeues");
    obs::MetricId retirements =
        obs::metrics().counter("fleet.retirements");
    obs::MetricId skips = obs::metrics().counter("fleet.skips");
};

FleetMetrics&
fleetMetrics()
{
    static FleetMetrics m;
    return m;
}

} // namespace

Expected<std::vector<WorkerAddress>>
parseWorkerList(const std::string& csv)
{
    std::vector<WorkerAddress> out;
    size_t start = 0;
    for (size_t pos = 0; pos <= csv.size(); ++pos) {
        if (pos == csv.size() || csv[pos] == ',') {
            const std::string entry = csv.substr(start, pos - start);
            start = pos + 1;
            if (entry.empty())
                continue;
            Expected<WorkerAddress> addr = parseAddress(entry);
            if (!addr)
                return addr.error();
            out.push_back(std::move(addr.value()));
        }
    }
    return out;
}

Expected<std::vector<WorkerAddress>>
parseFleetFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Error::notFound("cannot open fleet file '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    Expected<obs::JsonValue> docOr = obs::parseJson(buf.str());
    if (!docOr)
        return Error(docOr.error().code,
                     path + ": " + docOr.error().message);
    const obs::JsonValue& root = docOr.value();
    if (!root.isObject())
        return Error::invalidConfig(path +
                                    ": fleet file must be a JSON object");
    std::vector<WorkerAddress> out;
    for (const auto& [key, v] : root.object) {
        if (key == "workers") {
            if (!v.isArray())
                return Error::invalidConfig(
                    path + ": 'workers' must be an array of "
                           "\"host:port\" strings");
            for (const obs::JsonValue& e : v.array) {
                if (!e.isString())
                    return Error::invalidConfig(
                        path + ": 'workers' entries must be strings");
                Expected<WorkerAddress> addr = parseAddress(e.string);
                if (!addr)
                    return Error(addr.error().code,
                                 path + ": " + addr.error().message);
                out.push_back(std::move(addr.value()));
            }
        } else {
            // Same strictness as sweep specs: a typo must not silently
            // shrink a fleet.
            return Error::invalidConfig(path +
                                        ": unknown fleet file key '" +
                                        key + "'");
        }
    }
    return out;
}

/** One live worker socket plus its NDJSON line buffer. */
struct FleetRunner::WorkerConn
{
    int fd = -1;
    std::string pending;

    ~WorkerConn() { closeFd(); }

    bool open() const { return fd >= 0; }

    void
    closeFd()
    {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
        pending.clear();
    }

    bool
    sendLine(const std::string& line)
    {
        std::string framed = line;
        framed += '\n';
        size_t off = 0;
        while (off < framed.size()) {
            const ssize_t n = ::send(fd, framed.data() + off,
                                     framed.size() - off, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            off += static_cast<size_t>(n);
        }
        return true;
    }

    /** Read one line, waiting at most @p waitMs for more bytes.
        1 = line ready, 0 = timeout slice, -1 = EOF/error/oversize. */
    int
    readLine(std::string* out, int waitMs)
    {
        for (;;) {
            const size_t nl = pending.find('\n');
            if (nl != std::string::npos) {
                out->assign(pending, 0, nl);
                pending.erase(0, nl + 1);
                return 1;
            }
            if (pending.size() > service::kMaxRequestBytes)
                return -1; // unbounded line: protocol violation
            pollfd pfd{fd, POLLIN, 0};
            const int rc = ::poll(&pfd, 1, waitMs);
            if (rc == 0)
                return 0;
            if (rc < 0)
                return errno == EINTR ? 0 : -1;
            char buf[65536];
            const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return -1;
            }
            if (n == 0)
                return -1;
            pending.append(buf, static_cast<size_t>(n));
        }
    }
};

FleetRunner::FleetRunner(sweep::SweepSpec spec, FleetOptions opts)
    : spec_(std::move(spec)), opts_(std::move(opts))
{
}

uint64_t
FleetRunner::leaseDeadlineMs() const
{
    if (opts_.leaseMs > 0)
        return opts_.leaseMs;
    if (spec_.maxCycles > 0) {
        // ~1k simulated cycles per host microsecond is far below any
        // observed throughput, so the derived lease is generous; the
        // clamp keeps pathological specs from starving or stalling
        // the retry machinery.
        uint64_t ms = spec_.maxCycles / 1000;
        return std::min<uint64_t>(std::max<uint64_t>(ms, 5000), 120000);
    }
    return 120000;
}

void
FleetRunner::warn(const std::string& message)
{
    // Warnings leave the fleet as structured event-log lines (one JSON
    // object with deterministic key order), so a consumer tailing the
    // CLI's stderr can parse degradation events instead of scraping
    // prose. The callback signature stays a plain string — the CLI
    // keeps printing whatever arrives.
    if (opts_.onWarning)
        opts_.onWarning(obs::eventLogLine("warn", "fleet", message));
}

uint64_t
FleetRunner::traceNowUs() const
{
    if (!opts_.trace)
        return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - traceEpoch_)
            .count());
}

void
FleetRunner::recordLocked(uint64_t idx, api::ShardResult result)
{
    if (done_[idx])
        return; // single-claim invariant should prevent this; be safe
    done_[idx] = true;
    results_[idx] = std::move(result);
    ++completed_;
}

void
FleetRunner::emitProgress(const api::ShardResult& s)
{
    if (!opts_.onProgress)
        return;
    api::ProgressEvent ev;
    ev.index = s.index;
    ev.total = shards_.size();
    ev.key = s.key;
    ev.ok = s.ok;
    ev.status = s.ok ? "ok" : common::errorCodeName(s.error.code);
    ev.retries = s.retries;
    ev.fromCache = s.fromCache;
    std::lock_guard<std::mutex> lock(progressMu_);
    opts_.onProgress(ev);
}

void
FleetRunner::runLocally(const std::vector<uint64_t>& indices)
{
    // The degraded path IS the single-process path: the same
    // SweepRunner::runCached, so results are indistinguishable from
    // fleet-executed ones in the merge.
    sweep::SweepRunner runner(spec_);
    sweep::ThreadPool pool(opts_.localJobs);
    pool.parallelFor(indices.size(), [&](uint64_t i) {
        const uint64_t idx = indices[i];
        api::ShardResult res = runner.runCached(shards_[idx], cache_.get());
        const api::ShardResult copy = res;
        {
            std::lock_guard<std::mutex> lock(mu_);
            recordLocked(idx, std::move(res));
            ++stats_.localShards;
        }
        emitProgress(copy);
    });
}

void
FleetRunner::workerLoop(size_t workerIdx)
{
    const WorkerAddress& addr = opts_.workers[workerIdx];
    const std::string label =
        addr.host + ":" + std::to_string(addr.port);
    WorkerConn conn;
    // Flight recorder: this thread owns spans_[1 + workerIdx] alone
    // (the single-owner contract), with one lane per lifecycle stage.
    // worker.queue / worker.exec are reconstructed from the durations
    // the worker reports on shard_done, anchored at the arrival time —
    // no cross-process clock sync.
    const bool tracing = opts_.trace;
    obs::SpanRecorder* rec = tracing ? &spans_[1 + workerIdx] : nullptr;
    obs::TrackId dialLane, leaseLane, queueLane, execLane;
    if (tracing) {
        const std::string prefix =
            "w" + std::to_string(workerIdx) + " " + label + " ";
        dialLane = rec->lane(prefix + "dial");
        leaseLane = rec->lane(prefix + "lease");
        queueLane = rec->lane(prefix + "worker.queue");
        execLane = rec->lane(prefix + "worker.exec");
    }
    bool dialedBefore = false;
    // Jitter stream per worker — deterministic seeding (the fabric
    // idiom everywhere), but jitter only shapes timing, never results.
    common::Xoshiro jitterRng(
        common::splitSeed(spec_.seed ^ 0xF1EE7C0DEULL, workerIdx));
    const uint64_t leaseMs = leaseDeadlineMs();
    const uint64_t silenceMs =
        opts_.heartbeatMs > 0
            ? std::max<uint64_t>(
                  opts_.heartbeatMs *
                      static_cast<uint64_t>(
                          std::max(1, opts_.heartbeatMisses)),
                  1000)
            : leaseMs;

    int consecutiveConnectFailures = 0;
    int consecutiveStreamFailures = 0;
    bool retire = false;

    while (!retire) {
        uint64_t idx = 0;
        int attempt = 0;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] {
                return completed_ == results_.size() || !ready_.empty();
            });
            if (completed_ == results_.size())
                break;
            // Prefer a shard this worker has not yet failed on; when
            // only struck ones remain, retry anyway — the attempt
            // budget bounds the waste.
            size_t pick = 0;
            for (size_t i = 0; i < ready_.size(); ++i)
                if (struckBy_[ready_[i]].count(workerIdx) == 0) {
                    pick = i;
                    break;
                }
            idx = ready_[pick];
            ready_.erase(ready_.begin() +
                         static_cast<std::ptrdiff_t>(pick));
            attempt = attempts_[idx]++;
            ++stats_.dispatched;
        }

        // Ensure a connection (bounded exponential backoff + jitter).
        while (!conn.open() && !retire) {
            if (dialedBefore)
                obs::metrics().add(fleetMetrics().redials);
            const uint64_t dialBegin = tracing ? traceNowUs() : 0;
            const int fd = tcpConnect(addr.host, addr.port, 2000);
            dialedBefore = true;
            if (tracing)
                rec->add(dialLane, fd >= 0 ? "dial ok" : "dial fail",
                         dialBegin, traceNowUs());
            if (fd >= 0) {
                conn.fd = fd;
                consecutiveConnectFailures = 0;
                break;
            }
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.connectFailures;
            }
            if (++consecutiveConnectFailures >= opts_.connectAttempts) {
                retire = true;
                break;
            }
            const uint64_t shift = static_cast<uint64_t>(
                std::min(consecutiveConnectFailures - 1, 5));
            const uint64_t base = opts_.backoffBaseMs << shift;
            const uint64_t jitter = jitterRng.next() % (base + 1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(base + jitter));
        }
        if (retire) {
            std::lock_guard<std::mutex> lock(mu_);
            --attempts_[idx]; // the attempt never left the coordinator
            --stats_.dispatched;
            ready_.push_front(idx);
            break;
        }

        const std::string reqId = "s" + std::to_string(idx) + "a" +
                                  std::to_string(attempt);
        Attempt outcome = Attempt::Pending;
        api::ShardResult shardResult;
        // Each attempt gets its own child span id, derived from the
        // (shard, attempt) slot so retries are distinguishable in the
        // merged timeline and ids never depend on scheduling.
        std::string traceWire;
        if (tracing)
            traceWire =
                traceRoot_
                    .child(idx * static_cast<uint64_t>(
                                     opts_.maxShardAttempts) +
                           static_cast<uint64_t>(attempt))
                    .str();
        const uint64_t leaseBegin = tracing ? traceNowUs() : 0;
        const char* failKind = "hard_fail";

        if (!conn.sendLine(shardRequestLine(reqId, spec_, idx,
                                            opts_.heartbeatMs,
                                            cache_ != nullptr,
                                            traceWire)))
            outcome = Attempt::HardFail;

        const auto leaseDeadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(leaseMs);
        auto lastActivity = std::chrono::steady_clock::now();
        while (outcome == Attempt::Pending) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= leaseDeadline) {
                outcome = Attempt::HardFail; // lease expired
                failKind = "lease_expired";
                obs::metrics().add(fleetMetrics().leaseExpiries);
                break;
            }
            if (now - lastActivity >=
                std::chrono::milliseconds(silenceMs)) {
                outcome = Attempt::HardFail; // heartbeat silence
                failKind = "silence";
                obs::metrics().add(fleetMetrics().heartbeatSilences);
                break;
            }
            std::string line;
            const int rc = conn.readLine(&line, 100);
            if (rc == 0)
                continue;
            if (rc < 0) {
                outcome = Attempt::HardFail; // EOF / reset / oversize
                break;
            }
            Expected<WorkerEvent> evOr = WorkerEvent::parse(line);
            if (!evOr) {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.protocolErrors;
                outcome = Attempt::HardFail;
                break;
            }
            const WorkerEvent& ev = evOr.value();
            lastActivity = std::chrono::steady_clock::now();
            if (ev.id != reqId)
                continue; // stale id: bytes flowed, liveness refreshed
            switch (ev.kind) {
              case WorkerEvent::Kind::Accepted:
              case WorkerEvent::Kind::Heartbeat:
                break;
              case WorkerEvent::Kind::CacheGet: {
                std::optional<std::vector<uint8_t>> bytes;
                if (cache_)
                    bytes = cache_->readBytes(ev.key);
                if (bytes) {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++stats_.remoteCacheHits;
                }
                if (!conn.sendLine(cacheResultLine(
                        reqId, bytes.has_value(),
                        bytes ? *bytes : std::vector<uint8_t>{})))
                    outcome = Attempt::HardFail;
                break;
              }
              case WorkerEvent::Kind::CachePut: {
                // Validated temp+rename persistence; a bad payload is
                // rejected by writeBytes, not installed.
                if (cache_)
                    (void)cache_->writeBytes(ev.key, ev.data);
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.remoteCachePuts;
                break;
              }
              case WorkerEvent::Kind::Error:
                // The worker is healthy enough to answer; the shard
                // attempt failed. Strike without closing the socket.
                outcome = Attempt::SoftFail;
                break;
              case WorkerEvent::Kind::ShardDone: {
                if (ev.index != idx) {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++stats_.protocolErrors;
                    outcome = Attempt::HardFail;
                    break;
                }
                auto decoded = sweep::ShardCache::decodeEntry(
                    ev.data, spec_, shards_[idx]);
                if (!decoded) {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++stats_.protocolErrors;
                    outcome = Attempt::HardFail;
                    break;
                }
                shardResult = std::move(*decoded);
                shardResult.fromCache = ev.cached;
                if (cache_)
                    (void)cache_->writeBytes(
                        sweep::ShardCache::shardKey(spec_,
                                                    shards_[idx]),
                        ev.data);
                if (tracing && !ev.trace.empty()) {
                    // Anchor the worker-side episodes at the payload's
                    // arrival: [arrival - exec - queue, arrival - exec)
                    // waited in the worker's queue, [arrival - exec,
                    // arrival) executed. Clamped at the epoch so a
                    // skewed duration can never underflow.
                    const uint64_t arrival = traceNowUs();
                    const uint64_t execBegin =
                        arrival >= ev.execUs ? arrival - ev.execUs : 0;
                    const uint64_t queueBegin =
                        execBegin >= ev.queueUs ? execBegin - ev.queueUs
                                                : 0;
                    const std::string tag =
                        "s" + std::to_string(idx) +
                        (ev.cached ? " cache=hit" : " cache=miss");
                    rec->add(queueLane, tag, queueBegin, execBegin);
                    rec->add(execLane, tag, execBegin, arrival);
                }
                outcome = Attempt::Success;
                break;
              }
            }
        }

        if (tracing) {
            const char* outcomeName =
                outcome == Attempt::Success    ? "ok"
                : outcome == Attempt::SoftFail ? "soft_fail"
                                               : failKind;
            rec->add(leaseLane,
                     reqId + " " + outcomeName, leaseBegin,
                     traceNowUs());
        }

        if (outcome == Attempt::Success) {
            consecutiveStreamFailures = 0;
            const api::ShardResult copy = shardResult;
            {
                std::lock_guard<std::mutex> lock(mu_);
                recordLocked(idx, std::move(shardResult));
            }
            cv_.notify_all();
            emitProgress(copy);
            continue;
        }

        // Failed attempt: maybe close the socket, strike the worker on
        // this shard, and requeue or skip.
        if (outcome == Attempt::HardFail) {
            conn.closeFd();
            ++consecutiveStreamFailures;
        }
        api::ShardResult skipCopy;
        bool skipped = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            struckBy_[idx].insert(workerIdx);
            const bool skip =
                static_cast<int>(struckBy_[idx].size()) >=
                    opts_.maxShardWorkers ||
                attempts_[idx] >= opts_.maxShardAttempts;
            if (skip) {
                // Deterministic skip-and-record: the recorded result
                // is a function of the shard identity only — no
                // worker addresses, no attempt counts — so even a
                // degraded report's content never depends on
                // scheduling.
                ++stats_.skipped;
                obs::metrics().add(fleetMetrics().skips);
                api::ShardResult skipRes;
                skipRes.index = shards_[idx].index;
                skipRes.key = shards_[idx].key();
                skipRes.error = Error::transient(
                    "shard " + skipRes.key +
                    ": abandoned by the fleet after repeated worker "
                    "failures");
                skipCopy = skipRes;
                skipped = true;
                recordLocked(idx, std::move(skipRes));
            } else {
                ++stats_.reassigned;
                obs::metrics().add(fleetMetrics().requeues);
                ready_.push_back(idx);
            }
        }
        cv_.notify_all();
        if (skipped)
            emitProgress(skipCopy);
        if (consecutiveStreamFailures >= opts_.connectAttempts)
            retire = true;
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        --activeWorkers_;
        if (retire) {
            ++stats_.workersDead;
            obs::metrics().add(fleetMetrics().retirements);
        }
    }
    cv_.notify_all();
    if (retire)
        warn("fleet: worker " + label +
             " retired after repeated failures; redistributing its "
             "work");
}

Expected<sweep::SweepResult>
FleetRunner::run()
{
    if (!spec_.shardReportsDir.empty())
        return Error::invalidArgument(
            "fleet execution cannot honour shard_reports_dir: remote "
            "and cached shards cannot reproduce per-shard report "
            "files");
    const bool tracing = opts_.trace;
    traceJson_.clear();
    spans_.clear();
    obs::TrackId coordLane;
    if (tracing) {
        traceRoot_ = obs::TraceContext::derive(spec_.seed);
        traceEpoch_ = std::chrono::steady_clock::now();
        spans_ =
            std::vector<obs::SpanRecorder>(1 + opts_.workers.size());
        coordLane = spans_[0].lane("coordinator");
    }

    const uint64_t expandBegin = traceNowUs();
    Expected<std::vector<sweep::ShardSpec>> shardsOr = spec_.expand();
    if (!shardsOr)
        return shardsOr.error();
    shards_ = std::move(shardsOr.value());
    if (tracing)
        spans_[0].add(coordLane,
                      "expand " + std::to_string(shards_.size()) +
                          " shards",
                      expandBegin, traceNowUs());
    if (!opts_.cacheDir.empty()) {
        cache_ = std::make_unique<sweep::ShardCache>(opts_.cacheDir);
        if (Status st = cache_->prepare(); !st)
            return st.error();
    }

    const size_t total = shards_.size();
    results_.assign(total, api::ShardResult{});
    done_.assign(total, false);
    struckBy_.assign(total, {});
    attempts_.assign(total, 0);
    completed_ = 0;
    ready_.clear();
    stats_ = FleetStats{};
    stats_.workers = opts_.workers.size();

    if (opts_.workers.empty()) {
        warn("fleet: no workers configured; degrading to in-process "
             "execution of all " +
             std::to_string(total) + " shards");
        std::vector<uint64_t> all(total);
        for (uint64_t i = 0; i < total; ++i)
            all[i] = i;
        const uint64_t localBegin = traceNowUs();
        runLocally(all);
        if (tracing)
            spans_[0].add(coordLane,
                          "local " + std::to_string(total) + " shards",
                          localBegin, traceNowUs());
    } else {
        const uint64_t enqueueBegin = traceNowUs();
        for (uint64_t i = 0; i < total; ++i)
            ready_.push_back(i);
        if (tracing)
            spans_[0].add(coordLane,
                          "enqueue " + std::to_string(total) +
                              " shards",
                          enqueueBegin, traceNowUs());
        activeWorkers_ = static_cast<int>(opts_.workers.size());
        std::vector<std::thread> threads;
        threads.reserve(opts_.workers.size());
        for (size_t w = 0; w < opts_.workers.size(); ++w)
            threads.emplace_back([this, w] { workerLoop(w); });
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this, total] {
                return completed_ == total || activeWorkers_ == 0;
            });
        }
        for (std::thread& t : threads)
            t.join();
        std::vector<uint64_t> remaining;
        for (uint64_t i = 0; i < total; ++i)
            if (!done_[i])
                remaining.push_back(i);
        if (!remaining.empty()) {
            warn("fleet: all " +
                 std::to_string(opts_.workers.size()) +
                 " workers retired with " +
                 std::to_string(remaining.size()) +
                 " shards unfinished; degrading to in-process "
                 "execution");
            const uint64_t localBegin = traceNowUs();
            runLocally(remaining);
            if (tracing)
                spans_[0].add(coordLane,
                              "local " +
                                  std::to_string(remaining.size()) +
                                  " shards",
                              localBegin, traceNowUs());
        }
    }

    // SweepRunner's index-ordered fold: the aggregates come out the
    // same no matter which worker (or the local fallback) produced
    // each shard.
    const uint64_t mergeBegin = traceNowUs();
    sweep::SweepResult result =
        sweep::SweepRunner::fold(spec_, shards_, std::move(results_));
    if (tracing) {
        // Every worker thread has joined by now, so reading their
        // recorders is race-free; the merge itself is the last
        // coordinator span.
        spans_[0].add(coordLane,
                      "merge " +
                          std::to_string(result.shards.size()) +
                          " shards",
                      mergeBegin, traceNowUs());
        std::vector<const obs::SpanRecorder*> parts;
        parts.reserve(spans_.size());
        for (const obs::SpanRecorder& r : spans_)
            parts.push_back(&r);
        traceJson_ = obs::mergeFleetTrace(traceRoot_, parts);
    }
    return result;
}

obs::JsonReport
FleetRunner::fleetStatsReport(const sweep::SweepResult& result,
                              const FleetStats& stats,
                              const std::string& tool)
{
    obs::JsonReport report;
    report.meta().tool = tool;
    report.meta().git = obs::gitDescribe();
    report.meta().wallSeconds = 0.0;
    report.meta().hostMips = 0.0;
    // The cache-stats conservation triple first (validate_report.py
    // checks cached + simulated == shards on every report), then the
    // fleet's own provenance.
    report.addScalar("sweep.shards",
                     static_cast<double>(result.shards.size()));
    report.addScalar("sweep.cached",
                     static_cast<double>(result.cachedShards));
    report.addScalar("sweep.simulated",
                     static_cast<double>(result.simulatedShards));
    report.addScalar("fleet.workers",
                     static_cast<double>(stats.workers));
    report.addScalar("fleet.workers_dead",
                     static_cast<double>(stats.workersDead));
    report.addScalar("fleet.dispatched",
                     static_cast<double>(stats.dispatched));
    report.addScalar("fleet.reassigned",
                     static_cast<double>(stats.reassigned));
    report.addScalar("fleet.skipped",
                     static_cast<double>(stats.skipped));
    report.addScalar("fleet.remote_cache_hits",
                     static_cast<double>(stats.remoteCacheHits));
    report.addScalar("fleet.remote_cache_puts",
                     static_cast<double>(stats.remoteCachePuts));
    report.addScalar("fleet.local_shards",
                     static_cast<double>(stats.localShards));
    report.addScalar("fleet.connect_failures",
                     static_cast<double>(stats.connectFailures));
    report.addScalar("fleet.protocol_errors",
                     static_cast<double>(stats.protocolErrors));
    return report;
}

} // namespace p10ee::fabric
