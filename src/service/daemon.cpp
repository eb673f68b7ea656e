#include "service/daemon.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/json.h"
#include "obs/metrics.h"

namespace p10ee::service {

using common::Error;
using common::Expected;
using common::Status;

namespace {

/** How long a worker waits for the coordinator's cache_result before
    treating the probe as a miss. Generous next to a heartbeat interval
    (the pump keeps running through the wait) yet bounded — a mute
    coordinator costs one extra simulation, never a wedged executor. */
constexpr int kRemoteCacheWaitMs = 2000;

/** Daemon instrumentation, interned once per process. */
struct DaemonMetrics
{
    obs::MetricId connections =
        obs::metrics().counter("service.connections");
    obs::MetricId cancels = obs::metrics().counter("service.cancels");
};

DaemonMetrics&
daemonMetrics()
{
    static DaemonMetrics m;
    return m;
}

} // namespace

Daemon::Connection::~Connection()
{
    if (fd >= 0)
        ::close(fd);
}

void
Daemon::Connection::sendLine(const std::string& line)
{
    std::lock_guard<std::mutex> lock(writeMu);
    if (!alive.load(std::memory_order_relaxed))
        return;
    std::string framed = line;
    framed += '\n';
    size_t off = 0;
    while (off < framed.size()) {
        // MSG_NOSIGNAL: a peer that hung up must not SIGPIPE the
        // daemon; the write error just retires this connection.
        ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            alive.store(false, std::memory_order_relaxed);
            return;
        }
        off += static_cast<size_t>(n);
    }
}

Daemon::Daemon(DaemonOptions opts)
    : opts_(opts),
      service_(api::Service::Options{opts.cacheDir}),
      queue_(opts.queueCapacity),
      startTime_(std::chrono::steady_clock::now())
{
    if (opts_.executors < 1)
        opts_.executors = 1;
    if (opts_.jobsPerRequest < 1)
        opts_.jobsPerRequest = 1;
}

Daemon::~Daemon()
{
    if (!stopped_ && listenFd_ >= 0)
        waitUntilStopped();
}

Status
Daemon::start()
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        return Error::transient(std::string("socket(): ") +
                                std::strerror(errno));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK); // localhost only
    addr.sin_port = htons(opts_.port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        Error e = Error::transient(
            "bind(127.0.0.1:" + std::to_string(opts_.port) +
            "): " + std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return e;
    }
    if (::listen(listenFd_, 16) != 0) {
        Error e = Error::transient(std::string("listen(): ") +
                                   std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return e;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0) {
        Error e = Error::transient(std::string("getsockname(): ") +
                                   std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return e;
    }
    port_ = ntohs(addr.sin_port);

    acceptThread_ = std::thread([this] { acceptLoop(); });
    executors_.reserve(static_cast<size_t>(opts_.executors));
    for (int i = 0; i < opts_.executors; ++i)
        executors_.emplace_back([this] { executorLoop(); });
    return common::okStatus();
}

void
Daemon::requestDrain()
{
    draining_.store(true);
    queue_.drain();
}

void
Daemon::waitUntilStopped()
{
    requestDrain();
    if (acceptThread_.joinable())
        acceptThread_.join();
    // Executors exit once the queue is drained; joining them first
    // guarantees every in-flight response was written before any
    // socket is torn down — the "graceful" in graceful drain.
    for (std::thread& t : executors_)
        if (t.joinable())
            t.join();
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        for (const auto& conn : conns_)
            ::shutdown(conn->fd, SHUT_RDWR); // wake blocked readers
    }
    std::map<std::thread::id, std::thread> readers;
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        readers.swap(readers_);
    }
    for (auto& [tid, t] : readers)
        t.join();
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        conns_.clear();
        finishedReaders_.clear();
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    stopped_ = true;
}

void
Daemon::acceptLoop()
{
    while (!draining_.load()) {
        reapReaders();
        pollfd pfd{listenFd_, POLLIN, 0};
        int rc = ::poll(&pfd, 1, 100); // tick so drain is noticed
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (rc == 0 || (pfd.revents & POLLIN) == 0)
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        setNoDelay(fd);
        connections_.fetch_add(1);
        obs::metrics().add(daemonMetrics().connections);
        auto conn = std::make_shared<Connection>(fd);
        // Registered under the lock the reader takes on exit, so a
        // reader never reports itself finished before it is in readers_.
        std::lock_guard<std::mutex> lock(connsMu_);
        conns_.push_back(conn);
        std::thread reader([this, conn] { readerLoop(conn); });
        readers_.emplace(reader.get_id(), std::move(reader));
    }
}

void
Daemon::reapReaders()
{
    std::vector<std::thread> finished;
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        for (std::thread::id tid : finishedReaders_) {
            auto it = readers_.find(tid);
            finished.push_back(std::move(it->second));
            readers_.erase(it);
        }
        finishedReaders_.clear();
    }
    for (std::thread& t : finished)
        t.join();
}

void
Daemon::readerLoop(std::shared_ptr<Connection> conn)
{
    std::string pending;
    char buf[65536];
    for (;;) {
        ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        pending.append(buf, static_cast<size_t>(n));
        if (pending.size() > kMaxRequestBytes &&
            pending.find('\n') >= kMaxRequestBytes) {
            // The buffered prefix of a single line already exceeds the
            // request bound: reject and hang up before scanning —
            // waiting for a terminator would hand a hostile client
            // unbounded daemon memory, and the check must run before
            // the line scan or a terminator arriving in the same chunk
            // that crosses the bound would sneak the line through to
            // the parser (which rejects it but leaves the connection
            // up).
            conn->sendLine(errorLine(
                "", Error::invalidArgument(
                        "request line exceeds " +
                        std::to_string(kMaxRequestBytes) + " bytes")));
            ::shutdown(conn->fd, SHUT_RDWR);
            break;
        }
        size_t start = 0;
        for (;;) {
            size_t nl = pending.find('\n', start);
            if (nl == std::string::npos)
                break;
            std::string_view line(pending.data() + start, nl - start);
            if (!line.empty())
                handleLine(conn, line);
            start = nl + 1;
        }
        pending.erase(0, start);
    }
    // EOF mid-line: the peer half-closed (or died) before terminating
    // its request. Treat the fragment exactly like a malformed request
    // — a structured error, counted as rejected — and never hand it to
    // the dispatcher: an unterminated fragment can be a complete,
    // valid JSON request whose trailing newline died with the client,
    // and executing it would tie an executor to a connection nobody is
    // reading. sendLine absorbs the (likely dead) peer.
    if (!pending.empty()) {
        rejected_.fetch_add(1);
        conn->sendLine(errorLine(
            "", Error::invalidArgument(
                    "connection closed mid-request (" +
                    std::to_string(pending.size()) +
                    " bytes without newline); request discarded")));
        // Framing violations are connection-fatal (the oversize path
        // above sets the precedent): hang up so a peer still reading
        // sees EOF instead of a socket that never speaks again.
        ::shutdown(conn->fd, SHUT_RDWR);
    }

    // Release the connection: its fd closes once no queued or running
    // job still holds it, and the accept loop joins this thread (a
    // thread cannot join itself).
    std::lock_guard<std::mutex> lock(connsMu_);
    conns_.erase(std::find(conns_.begin(), conns_.end(), conn));
    finishedReaders_.push_back(std::this_thread::get_id());
}

void
Daemon::handleLine(const std::shared_ptr<Connection>& conn,
                   std::string_view line)
{
    Expected<Request> reqOr = Request::parse(line);
    if (!reqOr) {
        rejected_.fetch_add(1);
        conn->sendLine(errorLine("", reqOr.error()));
        return;
    }
    Request& req = reqOr.value();

    switch (req.type) {
      case RequestType::Stats:
        conn->sendLine(statsLine(req.id));
        return;
      case RequestType::Metrics:
        // The registry dump is deterministic (sorted keys) and built
        // inline like stats: introspection must work even when every
        // executor is busy.
        conn->sendLine(metricsLine(req.id, obs::metrics().toJson()));
        return;
      case RequestType::Shutdown:
        conn->sendLine(acceptedLine(req.id, queue_.depth()));
        requestDrain();
        return;
      case RequestType::Cancel: {
        std::shared_ptr<std::atomic<bool>> flag;
        {
            std::lock_guard<std::mutex> lock(activeMu_);
            auto it = active_.find(req.target);
            if (it != active_.end())
                flag = it->second;
        }
        if (!flag) {
            conn->sendLine(errorLine(
                req.id, Error::notFound("no queued or running request '" +
                                        req.target + "'")));
            return;
        }
        flag->store(true);
        // If it is still queued, retire it now so it never runs; the
        // submitting client hears a `cancelled` error on its own
        // connection, the canceller an acknowledgement on this one.
        if (std::optional<Job> job = queue_.remove(req.target)) {
            job->send(errorLine(req.target,
                                Error::cancelled(
                                    "request cancelled while queued")));
            finishJob(req.target);
            cancelled_.fetch_add(1);
        }
        obs::metrics().add(daemonMetrics().cancels);
        conn->sendLine(acceptedLine(req.id, queue_.depth()));
        return;
      }
      case RequestType::CacheResult:
        // The answer to one of our own cache_get probes, not a job:
        // route it to the waiting executor, or drop it silently when
        // the probe already timed out (a probe is best-effort).
        routeCacheResult(req);
        return;
      case RequestType::Run:
      case RequestType::Sweep:
      case RequestType::Shard:
        break;
    }

    if (draining_.load()) {
        rejected_.fetch_add(1);
        conn->sendLine(errorLine(
            req.id, Error::overloaded(
                        "p10d is draining; request rejected — this "
                        "instance will not accept work again")));
        return;
    }

    Job job;
    job.cancel = std::make_shared<std::atomic<bool>>(false);
    job.send = [conn](const std::string& l) { conn->sendLine(l); };
    {
        std::lock_guard<std::mutex> lock(activeMu_);
        if (active_.count(req.id) != 0) {
            conn->sendLine(errorLine(
                req.id,
                Error::invalidArgument("request id '" + req.id +
                                       "' is already active")));
            return;
        }
        active_.emplace(req.id, job.cancel);
    }
    job.req = std::move(req);
    const std::string id = job.req.id;
    if (Status st = queue_.push(std::move(job)); !st) {
        finishJob(id);
        rejected_.fetch_add(1);
        conn->sendLine(errorLine(id, st.error()));
        return;
    }
    conn->sendLine(acceptedLine(id, queue_.depth()));
}

void
Daemon::executorLoop()
{
    Job job;
    while (queue_.pop(&job)) {
        execute(job);
        finishJob(job.req.id);
        job = Job{};
    }
}

void
Daemon::execute(Job& job)
{
    const std::string& id = job.req.id;
    if (job.cancel->load()) {
        // Cancelled between queue removal racing and pop: honour it.
        cancelled_.fetch_add(1);
        job.send(errorLine(
            id, Error::cancelled("request cancelled before execution")));
        return;
    }

    if (job.req.type == RequestType::Shard) {
        executeShard(job);
        return;
    }

    if (job.req.type == RequestType::Run) {
        api::RunRequest run = job.req.run;
        if (job.req.timeoutCycles != 0 &&
            (run.maxCycles == 0 ||
             job.req.timeoutCycles < run.maxCycles))
            run.maxCycles = job.req.timeoutCycles;
        Expected<api::RunOutcome> outcome = service_.runOne(run);
        if (!outcome) {
            failed_.fetch_add(1);
            job.send(errorLine(id, outcome.error()));
            return;
        }
        simulatedShards_.fetch_add(1);
        completed_.fetch_add(1);
        obs::JsonReport report =
            api::Service::runReport(run, outcome.value());
        job.send(doneLine(id, 0, 1, report.toJson()));
        return;
    }

    api::SweepOptions sweepOpts;
    sweepOpts.jobs = opts_.jobsPerRequest;
    sweepOpts.cancel = job.cancel.get();
    sweepOpts.maxCyclesOverride = job.req.timeoutCycles;
    auto send = job.send;
    sweepOpts.onProgress = [send, id](const api::ProgressEvent& ev) {
        send(progressLine(id, ev));
    };
    Expected<sweep::SweepResult> resultOr =
        service_.runSweep(job.req.spec, sweepOpts);
    if (!resultOr) {
        failed_.fetch_add(1);
        job.send(errorLine(id, resultOr.error()));
        return;
    }
    const sweep::SweepResult& result = resultOr.value();
    cachedShards_.fetch_add(result.cachedShards);
    simulatedShards_.fetch_add(result.simulatedShards -
                               result.cancelledShards);
    if (result.cancelledShards > 0) {
        // A partially-cancelled sweep's report is not the spec's
        // canonical artifact; report the cancellation instead.
        cancelled_.fetch_add(1);
        job.send(errorLine(
            id, Error::cancelled(
                    "request cancelled after " +
                    std::to_string(result.shards.size() -
                                   result.cancelledShards) +
                    " of " + std::to_string(result.shards.size()) +
                    " shards")));
        return;
    }
    completed_.fetch_add(1);
    obs::JsonReport report =
        api::Service::mergedReport(job.req.spec, result);
    job.send(doneLine(id, result.cachedShards, result.simulatedShards,
                      report.toJson()));
}

void
Daemon::executeShard(Job& job)
{
    const std::string id = job.req.id;

    // Tracing: the queue wait ended the moment the executor picked the
    // job up; the coordinator gets both phases as durations on
    // shard_done and anchors them at arrival, so no clock crosses the
    // process boundary.
    const std::string trace = job.req.trace;
    const auto execStart = std::chrono::steady_clock::now();
    const uint64_t queueUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            execStart - job.enqueued)
            .count());

    // Heartbeats bracket the WHOLE execution — remote cache waits
    // included — so the coordinator's liveness window never depends on
    // which phase the shard is in. The pump sleeps on a condition
    // variable that completion notifies, so it exits at once, and it is
    // joined before the terminal line goes out: a coordinator never
    // sees a heartbeat after shard_done.
    std::mutex pumpMu;
    std::condition_variable pumpCv;
    bool done = false; // guarded by pumpMu
    std::thread heartbeat;
    if (job.req.heartbeatMs > 0)
        heartbeat = std::thread([&] {
            const std::chrono::milliseconds interval(job.req.heartbeatMs);
            std::unique_lock<std::mutex> lock(pumpMu);
            while (!pumpCv.wait_for(lock, interval, [&] { return done; })) {
                lock.unlock();
                job.send(heartbeatLine(id, trace));
                lock.lock();
            }
        });

    api::ShardOptions shardOpts;
    shardOpts.maxCyclesOverride = job.req.timeoutCycles;
    if (job.req.remoteCache) {
        auto send = job.send;
        shardOpts.remoteLookup = [this, send, id](uint64_t key) {
            return remoteCacheLookup(send, id, key);
        };
        shardOpts.remoteStore =
            [send, id](uint64_t key,
                       const std::vector<uint8_t>& entry) {
                send(cachePutLine(id, key, entry));
            };
    }
    Expected<api::ShardOutcome> outcomeOr =
        service_.runShard(job.req.spec, job.req.shardIndex, shardOpts);

    {
        std::lock_guard<std::mutex> lock(pumpMu);
        done = true;
    }
    pumpCv.notify_one();
    if (heartbeat.joinable())
        heartbeat.join();

    if (!outcomeOr) {
        failed_.fetch_add(1);
        job.send(errorLine(id, outcomeOr.error()));
        return;
    }
    const api::ShardOutcome& outcome = outcomeOr.value();
    if (outcome.result.fromCache)
        cachedShards_.fetch_add(1);
    else
        simulatedShards_.fetch_add(1);
    completed_.fetch_add(1);
    const uint64_t execUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - execStart)
            .count());
    job.send(shardDoneLine(id, job.req.shardIndex,
                           outcome.result.fromCache, outcome.entry,
                           trace, queueUs, execUs));
}

std::optional<std::vector<uint8_t>>
Daemon::remoteCacheLookup(
    const std::function<void(const std::string&)>& send,
    const std::string& id, uint64_t key)
{
    auto wait = std::make_shared<CacheWait>();
    {
        std::lock_guard<std::mutex> lock(cacheWaitsMu_);
        cacheWaits_[id] = wait;
    }
    send(cacheGetLine(id, key));
    std::optional<std::vector<uint8_t>> out;
    {
        std::unique_lock<std::mutex> lock(wait->mu);
        wait->cv.wait_for(
            lock, std::chrono::milliseconds(kRemoteCacheWaitMs),
            [&wait] { return wait->delivered; });
        if (wait->delivered && wait->hit)
            out = std::move(wait->data);
    }
    {
        std::lock_guard<std::mutex> lock(cacheWaitsMu_);
        cacheWaits_.erase(id);
    }
    return out;
}

void
Daemon::routeCacheResult(const Request& req)
{
    std::shared_ptr<CacheWait> wait;
    {
        std::lock_guard<std::mutex> lock(cacheWaitsMu_);
        auto it = cacheWaits_.find(req.id);
        if (it != cacheWaits_.end())
            wait = it->second;
    }
    if (!wait)
        return; // probe already timed out (or unsolicited): drop
    std::lock_guard<std::mutex> lock(wait->mu);
    if (wait->delivered)
        return; // duplicate answer: first one wins
    wait->delivered = true;
    wait->hit = req.cacheHit;
    wait->data = req.cacheData;
    wait->cv.notify_all();
}

void
Daemon::finishJob(const std::string& id)
{
    std::lock_guard<std::mutex> lock(activeMu_);
    active_.erase(id);
}

std::string
Daemon::statsLine(const std::string& id) const
{
    const uint64_t cached = cachedShards_.load();
    const uint64_t simulated = simulatedShards_.load();
    const uint64_t shards = cached + simulated;
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      startTime_)
            .count();
    size_t active = 0;
    {
        std::lock_guard<std::mutex> lock(activeMu_);
        active = active_.size();
    }

    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("event").value("stats");
    w.key("queue_depth").value(static_cast<uint64_t>(queue_.depth()));
    w.key("active_requests").value(static_cast<uint64_t>(active));
    w.key("completed").value(completed_.load());
    w.key("failed").value(failed_.load());
    w.key("cancelled").value(cancelled_.load());
    w.key("rejected").value(rejected_.load());
    w.key("connections").value(connections_.load());
    w.key("cached_shards").value(cached);
    w.key("simulated_shards").value(simulated);
    w.key("cache_hit_rate")
        .value(shards > 0 ? static_cast<double>(cached) /
                                static_cast<double>(shards)
                          : 0.0);
    w.key("shards_per_sec")
        .value(uptime > 0.0 ? static_cast<double>(shards) / uptime
                            : 0.0);
    w.key("uptime_s").value(uptime);
    w.key("draining").value(draining_.load());
    w.endObject();
    return w.str();
}

} // namespace p10ee::service
