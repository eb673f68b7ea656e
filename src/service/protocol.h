/**
 * @file
 * The `p10d` wire protocol: newline-delimited JSON over a local TCP
 * socket (dependency-free, same spirit as the sweep ThreadPool).
 *
 * Requests — one JSON object per line, at most kMaxRequestBytes:
 *
 *   {"type":"sweep","id":"r1","spec":{...sweep spec...},
 *    "priority":0,"timeout_cycles":0}
 *   {"type":"run","id":"r2","config":"power10","workload":"xz",
 *    "smt":4,"instrs":20000,"warmup":5000,"seed":0}
 *   {"type":"stats","id":"r3"}
 *   {"type":"metrics","id":"r3"}
 *   {"type":"cancel","id":"r4","target":"r1"}
 *   {"type":"shutdown"}
 *
 * `run`, `sweep` and `shard` requests additionally accept an optional
 * "trace" key: a TraceContext wire string ("<32 hex>-<16 hex>", see
 * obs/trace.h). Its absence means tracing is off; anything that is not
 * exactly that shape is rejected like any other malformed field.
 *
 * The fabric layer (src/fabric) adds two request types a coordinator
 * sends to worker daemons:
 *
 *   {"type":"shard","id":"s5a0","spec":{...},"index":5,
 *    "heartbeat_ms":200,"remote_cache":true}
 *   {"type":"cache_result","id":"s5a0","hit":true,"data":"<hex>"}
 *
 * `shard` runs ONE shard of the embedded spec (the worker re-expands
 * the spec and picks the index, so both sides agree on identity by
 * construction); `cache_result` answers a worker's cache_get probe
 * ("data" is a hex-encoded ShardCache entry, required exactly when
 * "hit" is true).
 *
 * Responses — one JSON object per line, interleaved per request id:
 *
 *   {"id":"r1","event":"accepted","queue_depth":3}
 *   {"id":"r1","event":"progress","index":0,"total":8,"key":"...",
 *    "status":"ok","retries":0,"cached":false}
 *   {"id":"r1","event":"done","cached_shards":0,"simulated_shards":8,
 *    "report":{...p10ee-report/1...}}
 *   {"id":"r1","event":"error","code":"overloaded","message":"..."}
 *
 * Fabric events a worker emits while executing a `shard` request:
 *
 *   {"id":"s5a0","event":"heartbeat"}
 *   {"id":"s5a0","event":"cache_get","key":"<16-hex>"}
 *   {"id":"s5a0","event":"cache_put","key":"<16-hex>","data":"<hex>"}
 *   {"id":"s5a0","event":"shard_done","index":5,"cached":false,
 *    "data":"<hex ShardCache entry>"}
 *
 * When the shard request carried a "trace" key, the worker echoes it on
 * heartbeat and shard_done, and shard_done additionally reports the
 * worker-side queue wait and execution time as "queue_us"/"exec_us"
 * durations — durations, not timestamps, so the coordinator can anchor
 * them at the arrival time without any cross-process clock agreement.
 * Those three keys are valid only together (see fabric/wire.h).
 *
 * The `metrics` request returns the live process-wide registry
 * (obs/metrics.h) in one line, keys sorted deterministically:
 *
 *   {"id":"r3","event":"metrics","metrics":{"service.connections":2,...}}
 *
 * A shard_done payload IS a ShardCache entry (magic, versions, key,
 * checksum — see sweep/cache.h), so the coordinator validates and
 * decodes it through the exact code path a local cache hit takes, and
 * can persist it verbatim into the fleet-wide cache directory.
 *
 * The `report` member of a `done` line is always the LAST key and its
 * value is the exact byte sequence the offline tool would write for
 * the same spec — clients recover it by slicing the line between
 * `"report":` and the final `}`, never by re-serializing, which is
 * what keeps the socket path byte-identical to `p10sweep_cli --out`.
 *
 * Parsing is hostile-input safe: malformed JSON, wrong-typed fields,
 * unknown request types, oversized or truncated lines all come back as
 * structured `common::Error`s (→ `error` events), never aborts — the
 * facade contract that a bad request must not take the daemon down.
 */

#ifndef P10EE_SERVICE_PROTOCOL_H
#define P10EE_SERVICE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/service.h"
#include "api/types.h"
#include "common/error.h"
#include "obs/report.h"
#include "sweep/spec.h"

namespace p10ee::service {

/** Upper bound on one request line (backpressure against hostile or
    runaway clients; a spec is config-sized, never telemetry-sized). */
inline constexpr size_t kMaxRequestBytes = 1u << 20;

/** Priority bounds (higher runs first; FIFO within a priority). */
inline constexpr int kMinPriority = -100;
inline constexpr int kMaxPriority = 100;

enum class RequestType
{
    Run,
    Sweep,
    Stats,
    Metrics,    ///< live metrics registry dump (obs/metrics.h)
    Cancel,
    Shutdown,
    Shard,      ///< fabric: run one shard of the embedded spec
    CacheResult ///< fabric: answer to an in-flight cache_get probe
};

/** One parsed request. */
struct Request
{
    RequestType type = RequestType::Stats;
    std::string id; ///< required for run/sweep/cancel/shard/cache_result
    int priority = 0;
    /** Per-shard cycle budget; tightens the spec's own max_cycles. */
    uint64_t timeoutCycles = 0;
    std::string target;    ///< cancel: the request id to withdraw
    sweep::SweepSpec spec; ///< sweep + shard payload
    api::RunRequest run;   ///< run payload

    uint64_t shardIndex = 0;  ///< shard: expansion-order index to run
    uint64_t heartbeatMs = 0; ///< shard: liveness interval (0 = none)
    bool remoteCache = false; ///< shard: probe the coordinator's cache
    bool cacheHit = false;    ///< cache_result: probe outcome
    /** cache_result: decoded entry bytes (present exactly when hit). */
    std::vector<uint8_t> cacheData;
    /** run/sweep/shard: validated TraceContext wire string ("" = off). */
    std::string trace;

    /**
     * Parse one request line. Enforces kMaxRequestBytes, strict field
     * types, unknown-key rejection inside `spec`, and id presence
     * where the response stream needs one.
     */
    static common::Expected<Request> parse(std::string_view line);
};

// --- Response line builders (no trailing newline) ---

std::string acceptedLine(const std::string& id, size_t queueDepth);

std::string progressLine(const std::string& id,
                         const api::ProgressEvent& ev);

/** @p reportJson is embedded verbatim as the final `report` member. */
std::string doneLine(const std::string& id, uint64_t cachedShards,
                     uint64_t simulatedShards,
                     const std::string& reportJson);

std::string errorLine(const std::string& id, const common::Error& e);

/** @p metricsJson (one flat object, MetricsRegistry::toJson) is
    embedded verbatim as the final `metrics` member. */
std::string metricsLine(const std::string& id,
                        const std::string& metricsJson);

// --- Fabric event builders (worker -> coordinator, no newline) ---

/** Non-empty @p trace (the request's wire string) is echoed back. */
std::string heartbeatLine(const std::string& id,
                          const std::string& trace = "");

std::string cacheGetLine(const std::string& id, uint64_t key);

std::string cachePutLine(const std::string& id, uint64_t key,
                         const std::vector<uint8_t>& entry);

/** Non-empty @p trace adds trace/queue_us/exec_us (worker-side queue
    wait and execution durations in microseconds). */
std::string shardDoneLine(const std::string& id, uint64_t index,
                          bool cached,
                          const std::vector<uint8_t>& entry,
                          const std::string& trace = "",
                          uint64_t queueUs = 0, uint64_t execUs = 0);

/** Cache keys cross the wire as fixed-width 16-hex-digit strings — a
    JSON number would round through a double and corrupt keys above
    2^53. */
std::string cacheKeyHex(uint64_t key);

/** Strict inverse of cacheKeyHex: exactly 16 lowercase hex digits. */
common::Expected<uint64_t> parseCacheKeyHex(const std::string& text);

/**
 * Slice the verbatim report bytes out of a `done` line (everything
 * between `"report":` and the line's final `}`). Returns an error when
 * the line is not a done line. The inverse of doneLine() — the only
 * sanctioned way to recover a byte-identical report from the wire.
 */
common::Expected<std::string> extractReport(std::string_view doneLine);

/**
 * Turn off Nagle's algorithm on a connected NDJSON stream socket. Both
 * ends call it: a worker writes `accepted` and then `shard_done` before
 * the coordinator says anything, and with Nagle on the second line
 * waits for the peer to ACK the first, which Linux delays by up to
 * 40 ms. Every line is one complete message, so nothing is gained by
 * coalescing them. Best-effort: a failure only costs latency.
 */
void setNoDelay(int fd);

} // namespace p10ee::service

#endif // P10EE_SERVICE_PROTOCOL_H
