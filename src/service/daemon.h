/**
 * @file
 * The `p10d` simulation daemon: a long-running service that accepts
 * newline-delimited JSON requests over a local TCP socket (127.0.0.1
 * only, dependency-free POSIX sockets) and executes them through the
 * one `api::Service` entry path.
 *
 * Architecture:
 *  - one accept thread polls the listen socket (100 ms tick so drain
 *    is noticed promptly), spawns a reader thread per connection and
 *    joins the readers of closed connections;
 *  - reader threads parse request lines (hostile-input safe — any
 *    parse failure becomes an `error` event, never an abort), answer
 *    `stats`/`cancel`/`shutdown` inline, and enqueue `run`/`sweep`
 *    jobs on a bounded priority JobQueue (full queue → structured
 *    `overloaded` rejection: backpressure, not memory growth);
 *  - a small pool of executor threads pops jobs and runs them via
 *    `api::Service`, streaming `progress` events and a final `done`
 *    line whose embedded report is byte-identical to what the offline
 *    `p10sweep_cli` writes for the same spec — all requests share the
 *    Service's ShardCache, so a warm repeat simulates zero shards.
 *
 * Shutdown is a graceful drain (SIGTERM in `examples/p10d`, or a
 * `shutdown` request): stop accepting, finish every queued and
 * in-flight job, flush responses, then close connections and exit 0.
 *
 * Responses to one request always go to the connection that submitted
 * it; a client multiplexing requests demultiplexes on the `id` field.
 */

#ifndef P10EE_SERVICE_DAEMON_H
#define P10EE_SERVICE_DAEMON_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "common/error.h"
#include "service/protocol.h"
#include "service/queue.h"

namespace p10ee::service {

struct DaemonOptions
{
    /** TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()). */
    uint16_t port = 0;
    /** Shared shard-cache directory ("" = caching off). */
    std::string cacheDir;
    /** Executor threads: how many requests run concurrently. */
    int executors = 2;
    /** Sweep pool threads per request (api::SweepOptions::jobs). */
    int jobsPerRequest = 1;
    /** Bounded queue capacity (accepted-but-not-started requests). */
    size_t queueCapacity = 64;
};

class Daemon
{
  public:
    explicit Daemon(DaemonOptions opts);
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /** Bind + listen + spawn threads. Bind failures are recoverable
        Errors (port in use, etc.), not aborts. */
    common::Status start();

    /** The bound port (the ephemeral one when options.port was 0).
        Valid after start() succeeded. */
    uint16_t port() const { return port_; }

    /**
     * Begin a graceful drain: stop accepting connections and new
     * requests, let queued and in-flight jobs finish. Idempotent and
     * safe to call from any thread, including a reader thread handling
     * a `shutdown` request (it only flips flags — joining happens in
     * waitUntilStopped()).
     */
    void requestDrain();

    bool draining() const { return draining_.load(); }

    /**
     * Drain (if not already requested) and join every thread. After
     * this returns all responses are flushed and all sockets closed.
     * Must not be called from a daemon-owned thread.
     */
    void waitUntilStopped();

  private:
    /** One client socket; writes are serialized under writeMu. */
    struct Connection
    {
        explicit Connection(int f) : fd(f) {}
        ~Connection();

        /** Write @p line + '\n' atomically w.r.t. other senders.
            A dead peer marks the connection instead of raising. */
        void sendLine(const std::string& line);

        const int fd;
        std::mutex writeMu;
        std::atomic<bool> alive{true};
    };

    /**
     * One in-flight remote-cache probe: the executor parks here after
     * sending cache_get, the reader thread delivers the coordinator's
     * cache_result by request id. A probe that times out is simply a
     * miss — the remote tier can only ever save work.
     */
    struct CacheWait
    {
        std::mutex mu;
        std::condition_variable cv;
        bool delivered = false;
        bool hit = false;
        std::vector<uint8_t> data;
    };

    void acceptLoop();
    void readerLoop(std::shared_ptr<Connection> conn);
    void reapReaders();
    void executorLoop();
    void handleLine(const std::shared_ptr<Connection>& conn,
                    std::string_view line);
    void execute(Job& job);
    void executeShard(Job& job);
    std::optional<std::vector<uint8_t>> remoteCacheLookup(
        const std::function<void(const std::string&)>& send,
        const std::string& id, uint64_t key);
    void routeCacheResult(const Request& req);
    void finishJob(const std::string& id);
    std::string statsLine(const std::string& id) const;

    DaemonOptions opts_;
    api::Service service_;
    JobQueue queue_;

    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> draining_{false};
    bool stopped_ = false;

    std::thread acceptThread_;
    std::vector<std::thread> executors_;
    std::mutex connsMu_; ///< guards readers_, finishedReaders_, conns_
    std::map<std::thread::id, std::thread> readers_;
    /** Readers that have exited and wait for the accept loop to join
        them. */
    std::vector<std::thread::id> finishedReaders_;
    /** Open connections, each dropped by its reader on exit. */
    std::vector<std::shared_ptr<Connection>> conns_;

    /** Queued + running request ids → their cancel flags (duplicate-id
        detection and cancel routing). */
    mutable std::mutex activeMu_;
    std::map<std::string, std::shared_ptr<std::atomic<bool>>> active_;

    /** In-flight cache_get probes by request id (fabric remote tier). */
    std::mutex cacheWaitsMu_;
    std::map<std::string, std::shared_ptr<CacheWait>> cacheWaits_;

    // Live metrics (the `stats` request; never part of reports).
    std::chrono::steady_clock::time_point startTime_;
    std::atomic<uint64_t> connections_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> failed_{0};
    std::atomic<uint64_t> cancelled_{0};
    std::atomic<uint64_t> rejected_{0};
    std::atomic<uint64_t> cachedShards_{0};
    std::atomic<uint64_t> simulatedShards_{0};
};

} // namespace p10ee::service

#endif // P10EE_SERVICE_DAEMON_H
