/**
 * @file
 * Tests of the p10d service layer: wire-protocol parsing (hostile
 * input included), the bounded priority JobQueue, the live daemon over
 * real loopback sockets, and the three-way equivalence contract — the
 * same sweep spec produces byte-identical merged reports via a library
 * call, the offline `p10sweep_cli` binary, and a live `p10d` socket
 * round-trip, cold or warm cache, at any jobs count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "api/service.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "service/queue.h"
#include "sweep/spec.h"

using namespace p10ee;

namespace {

const char* kSpecJson =
    "{\"configs\":[\"power10\"],\"workloads\":[\"perlbench\",\"xz\"],"
    "\"smt\":[1,2],\"seeds\":1,\"instrs\":2000,\"warmup\":500}";

sweep::SweepSpec
testSpec()
{
    auto specOr = sweep::SweepSpec::fromJson(kSpecJson);
    EXPECT_TRUE(specOr.ok());
    return specOr.value();
}

/** The canonical bytes the daemon must reproduce for kSpecJson. */
std::string
libraryReportBytes(const std::string& cacheDir = "")
{
    api::Service service(api::Service::Options{cacheDir});
    api::SweepOptions opts;
    opts.jobs = 2;
    auto result = service.runSweep(testSpec(), opts);
    EXPECT_TRUE(result.ok());
    return api::Service::mergedReport(testSpec(), result.value())
        .toJson();
}

std::string
freshDir(const std::string& stem)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / stem).string();
    std::filesystem::remove_all(dir);
    return dir;
}

/** Minimal NDJSON client over a blocking loopback socket. */
class Client
{
  public:
    explicit Client(uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        // A bound read timeout turns a hung daemon into a test
        // failure instead of a CI timeout (generous for sanitizers).
        timeval tv{120, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)),
                  0);
    }
    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void
    sendLine(const std::string& line)
    {
        std::string framed = line;
        framed += '\n';
        size_t off = 0;
        while (off < framed.size()) {
            ssize_t n = ::send(fd_, framed.data() + off,
                               framed.size() - off, MSG_NOSIGNAL);
            ASSERT_GT(n, 0);
            off += static_cast<size_t>(n);
        }
    }

    /** Write @p raw without the NDJSON terminator (half-request). */
    void
    sendRaw(const std::string& raw)
    {
        size_t off = 0;
        while (off < raw.size()) {
            ssize_t n = ::send(fd_, raw.data() + off, raw.size() - off,
                               MSG_NOSIGNAL);
            ASSERT_GT(n, 0);
            off += static_cast<size_t>(n);
        }
    }

    /** Half-close: signal EOF to the daemon, keep reading replies. */
    void shutdownWrite() { ::shutdown(fd_, SHUT_WR); }

    /** Next response line ("" on EOF/timeout). */
    std::string
    readLine()
    {
        for (;;) {
            size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            char chunk[65536];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return "";
            buf_.append(chunk, static_cast<size_t>(n));
        }
    }

    /** Skip progress lines until the final event for @p id. */
    std::string
    readFinal(const std::string& id)
    {
        for (;;) {
            std::string line = readLine();
            if (line.empty())
                return "";
            auto doc = obs::parseJson(line);
            if (!doc.ok() || !doc.value().isObject())
                return line;
            const obs::JsonValue* ev = doc.value().find("event");
            const obs::JsonValue* rid = doc.value().find("id");
            if (ev == nullptr || rid == nullptr ||
                rid->string != id)
                continue;
            if (ev->string == "done" || ev->string == "error")
                return line;
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

std::string
field(const std::string& line, const std::string& key)
{
    auto doc = obs::parseJson(line);
    EXPECT_TRUE(doc.ok()) << line;
    const obs::JsonValue* v = doc.value().find(key);
    if (v == nullptr)
        return "";
    if (v->isString())
        return v->string;
    if (v->isNumber())
        return obs::JsonWriter::number(v->number);
    return "";
}

service::Request
mustParse(const std::string& line)
{
    auto reqOr = service::Request::parse(line);
    EXPECT_TRUE(reqOr.ok()) << (reqOr.ok() ? "" : reqOr.error().str());
    return reqOr.ok() ? reqOr.value() : service::Request{};
}

// --- Protocol ---

TEST(Protocol, ParsesEveryRequestType)
{
    auto sweepReq = mustParse(
        std::string("{\"type\":\"sweep\",\"id\":\"s1\",\"priority\":5,"
                    "\"timeout_cycles\":100,\"spec\":") +
        kSpecJson + "}");
    EXPECT_EQ(sweepReq.type, service::RequestType::Sweep);
    EXPECT_EQ(sweepReq.id, "s1");
    EXPECT_EQ(sweepReq.priority, 5);
    EXPECT_EQ(sweepReq.timeoutCycles, 100u);
    EXPECT_EQ(sweepReq.spec.shardCount(), 4u);

    auto runReq = mustParse(
        "{\"type\":\"run\",\"id\":\"r1\",\"config\":\"power9\","
        "\"workload\":\"xz\",\"smt\":2,\"instrs\":1000,\"warmup\":100,"
        "\"seed\":3}");
    EXPECT_EQ(runReq.type, service::RequestType::Run);
    EXPECT_EQ(runReq.run.config, "power9");
    EXPECT_EQ(runReq.run.smt, 2);
    EXPECT_EQ(runReq.run.seed, 3u);

    EXPECT_EQ(mustParse("{\"type\":\"stats\"}").type,
              service::RequestType::Stats);
    EXPECT_EQ(mustParse("{\"type\":\"cancel\",\"id\":\"c\","
                        "\"target\":\"s1\"}")
                  .target,
              "s1");
    EXPECT_EQ(mustParse("{\"type\":\"shutdown\"}").type,
              service::RequestType::Shutdown);
}

TEST(Protocol, RejectsHostileInput)
{
    // Spec-body problems surface as InvalidConfig (SweepSpec's own
    // validation); everything else is InvalidArgument. Both map to a
    // client-fault error event, never a crash.
    auto reject = [](const std::string& line) {
        auto r = service::Request::parse(line);
        ASSERT_FALSE(r.ok()) << line;
        EXPECT_TRUE(r.error().code == common::ErrorCode::InvalidArgument ||
                    r.error().code == common::ErrorCode::InvalidConfig)
            << line << " -> " << r.error().str();
    };
    reject("{nope");                       // malformed
    reject("[1,2,3]");                     // not an object
    reject("{\"type\":\"frobnicate\"}");   // unknown type
    reject("{\"type\":\"sweep\"}");        // missing id
    reject("{\"type\":\"sweep\",\"id\":\"\",\"spec\":{}}"); // empty id
    reject("{\"type\":\"sweep\",\"id\":\"x\"}");    // missing spec
    reject("{\"type\":\"sweep\",\"id\":\"x\",\"spec\":"
           "{\"configz\":[\"power10\"]}}"); // typo'd spec key
    reject(std::string("{\"type\":\"sweep\",\"id\":\"x\",\"spec\":") +
           kSpecJson + ",\"bogus\":1}"); // unknown envelope key
    reject("{\"type\":\"run\",\"id\":\"x\",\"smt\":\"four\"}");
    reject("{\"type\":\"run\",\"id\":\"x\",\"frequency\":9}");
    reject("{\"type\":\"run\",\"id\":\"x\",\"smt\":3}"); // validate()
    reject("{\"type\":\"cancel\",\"id\":\"x\"}");        // no target
    reject("{\"type\":\"sweep\",\"id\":\"x\",\"priority\":101,"
           "\"spec\":{}}");
    reject("{\"type\":\"sweep\",\"id\":\"x\",\"priority\":1.5,"
           "\"spec\":{}}");
    reject("{\"type\":\"run\",\"id\":\"t\""); // truncated
    // "mode" is an unknown key on both request shapes: rejected by the
    // strict parsers, never silently ignored.
    for (const std::string line :
         {"{\"type\":\"run\",\"id\":\"x\",\"config\":\"power10\","
          "\"workload\":\"xz\",\"mode\":\"full\"}",
          "{\"type\":\"sweep\",\"id\":\"x\",\"spec\":{"
          "\"configs\":[\"power10\"],\"workloads\":[\"xz\"],"
          "\"mode\":[\"full\"]}}"}) {
        reject(line);
        auto r = service::Request::parse(line);
        ASSERT_FALSE(r.ok());
        EXPECT_NE(r.error().message.find("'mode'"), std::string::npos)
            << r.error().message;
    }
    // Oversized before any parsing work.
    std::string huge = "{\"type\":\"stats\",\"id\":\"";
    huge += std::string(service::kMaxRequestBytes, 'a');
    huge += "\"}";
    reject(huge);
}

TEST(Protocol, ErrorLineCarriesTheFieldKey)
{
    // Structured validation errors surface their field name verbatim
    // on the NDJSON error line, so a client can point at the exact
    // offending request key.
    common::Error withField{common::ErrorCode::InvalidArgument,
                            "run request: smt must be 1, 2, 4 or 8",
                            "smt"};
    const std::string line = service::errorLine("r1", withField);
    EXPECT_NE(line.find("\"field\":\"smt\""), std::string::npos)
        << line;

    // Errors not tied to one field keep the historical line shape: no
    // field key at all rather than an empty one.
    common::Error without = common::Error::timeout("too slow");
    const std::string bare = service::errorLine("r2", without);
    EXPECT_EQ(bare.find("\"field\""), std::string::npos) << bare;
}

TEST(Protocol, DoneLineEmbedsReportVerbatim)
{
    const std::string report =
        "{\"schema\":\"p10ee-report/1\",\"nested\":{\"x\":[1,2]}}";
    const std::string line = service::doneLine("req-1", 3, 5, report);
    EXPECT_EQ(line.find("\"report\":") + 9 + report.size() + 1,
              line.size());
    auto extracted = service::extractReport(line);
    ASSERT_TRUE(extracted.ok());
    EXPECT_EQ(extracted.value(), report);

    EXPECT_FALSE(
        service::extractReport(service::acceptedLine("x", 0)).ok());
}

// --- JobQueue ---

service::Job
makeJob(const std::string& id, int priority)
{
    service::Job job;
    job.req.type = service::RequestType::Sweep;
    job.req.id = id;
    job.req.priority = priority;
    job.cancel = std::make_shared<std::atomic<bool>>(false);
    job.send = [](const std::string&) {};
    return job;
}

TEST(JobQueue, PriorityDescendingFifoWithin)
{
    service::JobQueue q(8);
    ASSERT_TRUE(q.push(makeJob("low", -1)).ok());
    ASSERT_TRUE(q.push(makeJob("hi-a", 10)).ok());
    ASSERT_TRUE(q.push(makeJob("mid", 0)).ok());
    ASSERT_TRUE(q.push(makeJob("hi-b", 10)).ok());

    service::Job job;
    std::vector<std::string> order;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(q.pop(&job));
        order.push_back(job.req.id);
    }
    EXPECT_EQ(order,
              (std::vector<std::string>{"hi-a", "hi-b", "mid", "low"}));
}

TEST(JobQueue, OverloadIsStructuredBackpressure)
{
    service::JobQueue q(2);
    ASSERT_TRUE(q.push(makeJob("a", 0)).ok());
    ASSERT_TRUE(q.push(makeJob("b", 0)).ok());
    auto st = q.push(makeJob("c", 0));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, common::ErrorCode::Overloaded);
    EXPECT_EQ(q.depth(), 2u);
}

TEST(JobQueue, OverloadMessageCarriesDepthAndRetryHint)
{
    // The overload error is a client-facing retry contract: it must
    // name the queue pressure (depth of capacity) and carry a
    // retry-after hint clients like p10_client.py key their backoff
    // off, for the full and the draining flavours alike.
    service::JobQueue full(2);
    ASSERT_TRUE(full.push(makeJob("a", 0)).ok());
    ASSERT_TRUE(full.push(makeJob("b", 0)).ok());
    auto fullSt = full.push(makeJob("c", 0));
    ASSERT_FALSE(fullSt.ok());
    EXPECT_NE(fullSt.error().message.find("2 of 2"),
              std::string::npos)
        << fullSt.error().message;
    EXPECT_NE(fullSt.error().message.find("retry after"),
              std::string::npos)
        << fullSt.error().message;

    service::JobQueue draining(4);
    ASSERT_TRUE(draining.push(makeJob("a", 0)).ok());
    draining.drain();
    auto drainSt = draining.push(makeJob("b", 0));
    ASSERT_FALSE(drainSt.ok());
    EXPECT_NE(drainSt.error().message.find("1 of 4"),
              std::string::npos)
        << drainSt.error().message;
    EXPECT_NE(drainSt.error().message.find("submit elsewhere"),
              std::string::npos)
        << drainSt.error().message;
}

TEST(JobQueue, RemoveWithdrawsQueuedJob)
{
    service::JobQueue q(4);
    ASSERT_TRUE(q.push(makeJob("a", 0)).ok());
    ASSERT_TRUE(q.push(makeJob("b", 0)).ok());
    auto removed = q.remove("a");
    ASSERT_TRUE(removed.has_value());
    EXPECT_EQ(removed->req.id, "a");
    EXPECT_FALSE(q.remove("nope").has_value());
    EXPECT_EQ(q.depth(), 1u);
}

TEST(JobQueue, DrainServesBacklogThenStops)
{
    service::JobQueue q(4);
    ASSERT_TRUE(q.push(makeJob("a", 0)).ok());
    ASSERT_TRUE(q.push(makeJob("b", 0)).ok());
    q.drain();
    auto st = q.push(makeJob("c", 0));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, common::ErrorCode::Overloaded);

    service::Job job;
    EXPECT_TRUE(q.pop(&job));
    EXPECT_TRUE(q.pop(&job));
    EXPECT_FALSE(q.pop(&job)); // drained and empty: executors exit
}

// --- Daemon over live sockets ---

std::string
sweepRequest(const std::string& id)
{
    return std::string("{\"type\":\"sweep\",\"id\":\"") + id +
           "\",\"spec\":" + kSpecJson + "}";
}

TEST(Daemon, SweepOverSocketMatchesLibraryBytes)
{
    service::DaemonOptions opts;
    opts.jobsPerRequest = 2;
    service::Daemon daemon(opts);
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine(sweepRequest("s1"));
    std::string line = client.readLine();
    EXPECT_EQ(field(line, "event"), "accepted");

    uint64_t progress = 0;
    std::string done;
    for (;;) {
        line = client.readLine();
        ASSERT_FALSE(line.empty());
        const std::string ev = field(line, "event");
        if (ev == "progress") {
            ++progress;
            continue;
        }
        ASSERT_EQ(ev, "done") << line;
        done = line;
        break;
    }
    EXPECT_EQ(progress, 4u);
    auto report = service::extractReport(done);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value(), libraryReportBytes());

    daemon.waitUntilStopped();
}

TEST(Daemon, ServesEightConcurrentRequests)
{
    service::DaemonOptions opts;
    opts.executors = 8;
    opts.queueCapacity = 16;
    service::Daemon daemon(opts);
    ASSERT_TRUE(daemon.start().ok());

    const std::string expected = libraryReportBytes();
    std::vector<std::string> reports(8);
    std::vector<std::thread> clients;
    for (int i = 0; i < 8; ++i) {
        clients.emplace_back([&, i] {
            Client client(daemon.port());
            const std::string id = "c" + std::to_string(i);
            client.sendLine(sweepRequest(id));
            const std::string done = client.readFinal(id);
            auto report = service::extractReport(done);
            if (report.ok())
                reports[static_cast<size_t>(i)] = report.value();
        });
    }
    for (auto& t : clients)
        t.join();
    for (const std::string& r : reports)
        EXPECT_EQ(r, expected);

    daemon.waitUntilStopped();
}

TEST(Daemon, WarmCacheRepeatSimulatesZeroShards)
{
    const std::string dir = freshDir("p10ee_daemon_cache_test");
    service::DaemonOptions opts;
    opts.cacheDir = dir;
    opts.jobsPerRequest = 2;
    service::Daemon daemon(opts);
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine(sweepRequest("cold"));
    std::string cold = client.readFinal("cold");
    EXPECT_EQ(field(cold, "event"), "done");
    EXPECT_EQ(field(cold, "cached_shards"), "0");
    EXPECT_EQ(field(cold, "simulated_shards"), "4");

    client.sendLine(sweepRequest("warm"));
    std::string warm = client.readFinal("warm");
    EXPECT_EQ(field(warm, "event"), "done");
    EXPECT_EQ(field(warm, "cached_shards"), "4");
    EXPECT_EQ(field(warm, "simulated_shards"), "0");

    auto coldReport = service::extractReport(cold);
    auto warmReport = service::extractReport(warm);
    ASSERT_TRUE(coldReport.ok());
    ASSERT_TRUE(warmReport.ok());
    EXPECT_EQ(coldReport.value(), warmReport.value());

    daemon.waitUntilStopped();
    std::filesystem::remove_all(dir);
}

TEST(Daemon, RunRequestMatchesLibraryRunReport)
{
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine(
        "{\"type\":\"run\",\"id\":\"r1\",\"config\":\"power10\","
        "\"workload\":\"xz\",\"smt\":2,\"instrs\":2000,"
        "\"warmup\":500}");
    const std::string done = client.readFinal("r1");
    ASSERT_EQ(field(done, "event"), "done") << done;
    auto report = service::extractReport(done);
    ASSERT_TRUE(report.ok());

    api::RunRequest req;
    req.config = "power10";
    req.workload = "xz";
    req.smt = 2;
    req.instrs = 2000;
    req.warmup = 500;
    api::Service service;
    auto outcome = service.runOne(req);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(report.value(),
              api::Service::runReport(req, outcome.value()).toJson());

    daemon.waitUntilStopped();
}

TEST(Daemon, HostileInputGetsErrorEventsNotACrash)
{
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine("this is not json");
    std::string line = client.readLine();
    EXPECT_EQ(field(line, "event"), "error");
    EXPECT_EQ(field(line, "code"), "invalid_argument");

    client.sendLine("{\"type\":\"sweep\",\"id\":\"bad\",\"spec\":"
                    "{\"configs\":[\"warp-core\"]}}");
    line = client.readLine();
    EXPECT_EQ(field(line, "event"), "error");

    // Unknown cancel target: structured not_found.
    client.sendLine(
        "{\"type\":\"cancel\",\"id\":\"c\",\"target\":\"ghost\"}");
    line = client.readLine();
    EXPECT_EQ(field(line, "event"), "error");
    EXPECT_EQ(field(line, "code"), "not_found");

    // The daemon is still fully alive afterwards.
    client.sendLine("{\"type\":\"stats\"}");
    line = client.readLine();
    EXPECT_EQ(field(line, "event"), "stats");

    daemon.waitUntilStopped();
}

TEST(Daemon, RunNamingADirectoryTraceGetsAnErrorNotACrash)
{
    // A directory opens like a file; reading it must be a structured
    // error event, and the daemon must go on serving.
    const std::string dir = freshDir("p10ee_daemon_trace_dir");
    std::filesystem::create_directories(dir);
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine("{\"type\":\"run\",\"id\":\"d1\",\"config\":"
                    "\"power10\",\"workload\":\"trace:" + dir +
                    "\",\"smt\":1,\"instrs\":2000,\"warmup\":500}");
    const std::string err = client.readFinal("d1");
    EXPECT_EQ(field(err, "event"), "error") << err;
    EXPECT_EQ(field(err, "code"), "not_found") << err;

    client.sendLine(
        "{\"type\":\"run\",\"id\":\"r2\",\"config\":\"power10\","
        "\"workload\":\"xz\",\"smt\":1,\"instrs\":2000,"
        "\"warmup\":500}");
    EXPECT_EQ(field(client.readFinal("r2"), "event"), "done");

    daemon.waitUntilStopped();
    std::filesystem::remove_all(dir);
}

TEST(Daemon, OversizedLineIsRejectedAndConnectionDropped)
{
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());

    {
        Client client(daemon.port());
        std::string huge(service::kMaxRequestBytes + 512, 'x');
        client.sendLine(huge);
        std::string line = client.readLine();
        EXPECT_EQ(field(line, "event"), "error");
        EXPECT_EQ(client.readLine(), ""); // daemon hung up
    }
    // A fresh connection still works.
    Client again(daemon.port());
    again.sendLine("{\"type\":\"stats\"}");
    EXPECT_EQ(field(again.readLine(), "event"), "stats");

    daemon.waitUntilStopped();
}

TEST(Daemon, HalfClosedRequestIsRejectedNotExecuted)
{
    // A peer that dies (or gives up) mid-line leaves a syntactically
    // complete JSON object in the buffer with no NDJSON terminator.
    // That fragment is a malformed request by definition — executing
    // it would run work the client never finished submitting.
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());

    {
        Client client(daemon.port());
        client.sendRaw(sweepRequest("half"));
        client.shutdownWrite();
        std::string line = client.readLine();
        EXPECT_EQ(field(line, "event"), "error");
        EXPECT_EQ(field(line, "code"), "invalid_argument");
        EXPECT_NE(field(line, "message").find("mid-request"),
                  std::string::npos)
            << line;
        EXPECT_EQ(client.readLine(), ""); // no accepted/done follows
    }

    // Pin the "not executed" half: the fragment was counted rejected,
    // and nothing ran or is queued behind our back.
    Client probe(daemon.port());
    probe.sendLine("{\"type\":\"stats\"}");
    const std::string stats = probe.readLine();
    EXPECT_EQ(field(stats, "event"), "stats");
    EXPECT_EQ(field(stats, "rejected"), "1");
    EXPECT_EQ(field(stats, "completed"), "0");
    EXPECT_EQ(field(stats, "active_requests"), "0");
    EXPECT_EQ(field(stats, "queue_depth"), "0");

    daemon.waitUntilStopped();
}

TEST(Daemon, CancelQueuedRequestNeverRuns)
{
    service::DaemonOptions opts;
    opts.executors = 1; // "big" occupies the only executor
    service::Daemon daemon(opts);
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine(
        std::string("{\"type\":\"sweep\",\"id\":\"big\",\"spec\":"
                    "{\"configs\":[\"power10\"],\"workloads\":"
                    "[\"perlbench\"],\"smt\":[1],\"seeds\":4,"
                    "\"instrs\":30000,\"warmup\":2000}}"));
    EXPECT_EQ(field(client.readLine(), "event"), "accepted");
    client.sendLine(sweepRequest("victim"));
    EXPECT_EQ(field(client.readLine(), "event"), "accepted");
    client.sendLine(
        "{\"type\":\"cancel\",\"id\":\"c\",\"target\":\"victim\"}");

    // The victim must terminate with a cancelled error (either
    // withdrawn from the queue or cooperatively stopped mid-run if
    // scheduling raced), and the big request must still finish.
    const std::string victimEnd = client.readFinal("victim");
    EXPECT_EQ(field(victimEnd, "event"), "error");
    EXPECT_EQ(field(victimEnd, "code"), "cancelled");
    const std::string bigEnd = client.readFinal("big");
    EXPECT_EQ(field(bigEnd, "event"), "done");

    daemon.waitUntilStopped();
}

TEST(Daemon, ShutdownRequestDrainsInFlightWork)
{
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine(sweepRequest("inflight"));
    EXPECT_EQ(field(client.readLine(), "event"), "accepted");
    client.sendLine("{\"type\":\"shutdown\"}");

    // Graceful drain: the accepted request still completes fully.
    const std::string done = client.readFinal("inflight");
    EXPECT_EQ(field(done, "event"), "done");
    auto report = service::extractReport(done);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value(), libraryReportBytes());

    EXPECT_TRUE(daemon.draining());
    daemon.waitUntilStopped(); // must terminate, not hang
}

TEST(Daemon, StatsReportLiveMetrics)
{
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine(sweepRequest("s1"));
    EXPECT_EQ(field(client.readFinal("s1"), "event"), "done");

    client.sendLine("{\"type\":\"stats\",\"id\":\"st\"}");
    const std::string stats = client.readLine();
    EXPECT_EQ(field(stats, "event"), "stats");
    EXPECT_EQ(field(stats, "id"), "st");
    EXPECT_EQ(field(stats, "completed"), "1");
    EXPECT_EQ(field(stats, "simulated_shards"), "4");
    EXPECT_EQ(field(stats, "cached_shards"), "0");
    EXPECT_EQ(field(stats, "queue_depth"), "0");
    // Extended stats stay backward compatible: new keys only.
    EXPECT_EQ(field(stats, "connections"), "1");

    daemon.waitUntilStopped();
}

/** Open file descriptors of this process (test client + in-process
    daemon). */
size_t
openFdCount()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++n;
    return n;
}

TEST(Daemon, ClosedConnectionsAreReleased)
{
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());
    const size_t before = openFdCount();

    for (int i = 0; i < 64; ++i) {
        Client client(daemon.port());
        client.sendLine("{\"type\":\"stats\"}");
        ASSERT_EQ(field(client.readLine(), "event"), "stats");
    }

    // The daemon notices each hang-up asynchronously; give its readers
    // a bounded moment to exit before judging.
    size_t after = openFdCount();
    for (int i = 0; i < 250 && after > before + 4; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        after = openFdCount();
    }
    EXPECT_LE(after, before + 4)
        << "64 closed connections left " << after - before
        << " descriptors open";

    daemon.waitUntilStopped();
}

/** One shard of a single-shard spec that simulates for a few hundred
    ms (longer under sanitizers), so several heartbeat intervals pass. */
std::string
longShardRequest(const std::string& id, uint64_t heartbeatMs)
{
    return "{\"type\":\"shard\",\"id\":\"" + id +
           "\",\"index\":0,\"heartbeat_ms\":" +
           std::to_string(heartbeatMs) +
           ",\"spec\":{\"configs\":[\"power10\"],\"workloads\":"
           "[\"perlbench\"],\"smt\":[1],\"seeds\":1,"
           "\"instrs\":3000000,\"warmup\":1000}}";
}

/** Heartbeats for @p id read up to (and including) its shard_done. */
int
heartbeatsUntilShardDone(Client& client, const std::string& id)
{
    int heartbeats = 0;
    for (;;) {
        const std::string line = client.readLine();
        EXPECT_FALSE(line.empty()) << "connection ended before shard_done";
        if (line.empty())
            return heartbeats;
        const std::string ev = field(line, "event");
        EXPECT_NE(ev, "error") << line;
        EXPECT_EQ(field(line, "id"), id) << line;
        if (ev == "heartbeat")
            ++heartbeats;
        if (ev == "shard_done" || ev == "error")
            return heartbeats;
    }
}

TEST(Daemon, HeartbeatPumpRunsUntilShardDoneThenStops)
{
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());
    Client client(daemon.port());

    client.sendLine(longShardRequest("hb", 20));
    EXPECT_GE(heartbeatsUntilShardDone(client, "hb"), 3);

    // Nothing for the shard may follow its shard_done: everything up to
    // the reply of a later request on the same connection is that reply.
    client.sendLine("{\"type\":\"stats\",\"id\":\"st\"}");
    const std::string stats = client.readLine();
    EXPECT_EQ(field(stats, "event"), "stats") << stats;
    EXPECT_EQ(field(stats, "id"), "st");

    // heartbeat_ms 0 turns the pump off.
    client.sendLine(longShardRequest("quiet", 0));
    EXPECT_EQ(heartbeatsUntilShardDone(client, "quiet"), 0);

    daemon.waitUntilStopped();
}

// --- The metrics introspection surface ---

TEST(Protocol, MetricsRequestAndTraceKey)
{
    EXPECT_EQ(mustParse("{\"type\":\"metrics\",\"id\":\"m\"}").type,
              service::RequestType::Metrics);

    // A validated trace context rides run/sweep/shard requests.
    const std::string trace = obs::TraceContext::derive(11).str();
    auto sweepReq = mustParse(
        std::string("{\"type\":\"sweep\",\"id\":\"s\",\"trace\":\"") +
        trace + "\",\"spec\":" + kSpecJson + "}");
    EXPECT_EQ(sweepReq.trace, trace);
    auto runReq = mustParse(
        "{\"type\":\"run\",\"id\":\"r\",\"workload\":\"xz\","
        "\"instrs\":1000,\"trace\":\"" + trace + "\"}");
    EXPECT_EQ(runReq.trace, trace);
    // Absent trace = tracing off, not an error.
    EXPECT_TRUE(mustParse("{\"type\":\"stats\"}").trace.empty());

    auto reject = [](const std::string& line) {
        auto r = service::Request::parse(line);
        ASSERT_FALSE(r.ok()) << line;
        EXPECT_EQ(r.error().code, common::ErrorCode::InvalidArgument)
            << line;
    };
    // Only traceable types accept the key.
    reject("{\"type\":\"stats\",\"id\":\"x\",\"trace\":\"" + trace +
           "\"}");
    reject("{\"type\":\"metrics\",\"id\":\"x\",\"trace\":\"" + trace +
           "\"}");
    reject("{\"type\":\"cancel\",\"id\":\"x\",\"target\":\"y\","
           "\"trace\":\"" + trace + "\"}");
    // Malformed ids are protocol violations, not silent no-trace.
    reject("{\"type\":\"run\",\"id\":\"x\",\"workload\":\"xz\","
           "\"instrs\":1000,\"trace\":\"nope\"}");
    reject("{\"type\":\"run\",\"id\":\"x\",\"workload\":\"xz\","
           "\"instrs\":1000,\"trace\":7}");
}

TEST(Daemon, MetricsRequestAnswersInline)
{
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine(sweepRequest("m1"));
    EXPECT_EQ(field(client.readFinal("m1"), "event"), "done");

    client.sendLine("{\"type\":\"metrics\",\"id\":\"mx\"}");
    const std::string reply = client.readLine();
    EXPECT_EQ(field(reply, "event"), "metrics");
    EXPECT_EQ(field(reply, "id"), "mx");
    auto doc = obs::parseJson(reply);
    ASSERT_TRUE(doc.ok()) << reply;
    const obs::JsonValue* metrics = doc.value().find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_TRUE(metrics->isObject());
    // The queue instrumentation observed the sweep passing through.
    const obs::JsonValue* waits =
        metrics->find("service.queue.wait_us.count");
    ASSERT_NE(waits, nullptr);
    EXPECT_GE(waits->number, 1.0);
    const obs::JsonValue* conns = metrics->find("service.connections");
    ASSERT_NE(conns, nullptr);
    EXPECT_GE(conns->number, 1.0);
    // Deterministic dump ordering: asking twice yields sorted keys
    // both times and a second reply parses identically in shape.
    client.sendLine("{\"type\":\"metrics\",\"id\":\"my\"}");
    EXPECT_EQ(field(client.readLine(), "event"), "metrics");

    daemon.waitUntilStopped();
}

// --- Three-way equivalence: library vs CLI binary vs daemon ---

#ifdef P10EE_SWEEP_CLI_BIN
TEST(Equivalence, LibraryCliAndDaemonProduceIdenticalBytes)
{
    const std::string dir = freshDir("p10ee_equiv_test");
    std::filesystem::create_directories(dir);
    const std::string specPath = dir + "/spec.json";
    const std::string outPath = dir + "/cli_report.json";
    const std::string cachePath = dir + "/cache";
    {
        std::ofstream spec(specPath);
        spec << kSpecJson;
    }

    // 1. Offline CLI, jobs 1, cold cache.
    const std::string cmd = std::string(P10EE_SWEEP_CLI_BIN) +
                            " --spec " + specPath + " --out " +
                            outPath + " --jobs 1 --cache-dir " +
                            cachePath + " >/dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    std::ifstream in(outPath, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream cliBytes;
    cliBytes << in.rdbuf();

    // 2. Library call, jobs 2, warm cache (CLI populated it): the
    //    cross-process cache must replay without changing the bytes.
    api::Service service(api::Service::Options{cachePath});
    api::SweepOptions opts;
    opts.jobs = 2;
    auto warm = service.runSweep(testSpec(), opts);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.value().simulatedShards, 0u)
        << "CLI-written cache entries must replay in-process";
    const std::string libBytes =
        api::Service::mergedReport(testSpec(), warm.value()).toJson();

    // 3. Live daemon, jobs 4, same shared cache.
    service::DaemonOptions dopts;
    dopts.cacheDir = cachePath;
    dopts.jobsPerRequest = 4;
    service::Daemon daemon(dopts);
    ASSERT_TRUE(daemon.start().ok());
    Client client(daemon.port());
    client.sendLine(sweepRequest("eq"));
    const std::string done = client.readFinal("eq");
    ASSERT_EQ(field(done, "event"), "done") << done;
    EXPECT_EQ(field(done, "simulated_shards"), "0");
    auto daemonBytes = service::extractReport(done);
    ASSERT_TRUE(daemonBytes.ok());
    daemon.waitUntilStopped();

    EXPECT_EQ(cliBytes.str(), libBytes);
    EXPECT_EQ(daemonBytes.value(), libBytes);

    std::filesystem::remove_all(dir);
}
#endif

} // namespace
