#include "service/protocol.h"

#include <cstdio>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include "common/hex.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace p10ee::service {

using common::Error;
using common::Expected;
using common::Status;

namespace {

/** Strict string member; empty @p required -> optional with default. */
Expected<std::string>
readString(const obs::JsonValue& root, const std::string& key,
           bool required, std::string def = "")
{
    const obs::JsonValue* v = root.find(key);
    if (v == nullptr) {
        if (required)
            return Error::invalidArgument("request is missing '" + key +
                                          "'");
        return def;
    }
    if (!v->isString())
        return Error::invalidArgument("request field '" + key +
                                      "' must be a string");
    return v->string;
}

Expected<uint64_t>
readU64(const obs::JsonValue& root, const std::string& key, uint64_t def)
{
    const obs::JsonValue* v = root.find(key);
    if (v == nullptr)
        return def;
    return v->asU64("request field '" + key + "'");
}

Status
parseRunPayload(const obs::JsonValue& root, api::RunRequest* out)
{
    for (const auto& [key, v] : root.object) {
        if (key == "type" || key == "id" || key == "priority" ||
            key == "timeout_cycles" || key == "trace")
            continue; // envelope fields, handled by the caller
        if (key == "config" || key == "workload") {
            if (!v.isString())
                return Error::invalidArgument("run field '" + key +
                                              "' must be a string");
            (key == "config" ? out->config : out->workload) = v.string;
        } else if (key == "smt" || key == "cores" || key == "instrs" ||
                   key == "warmup" || key == "seed" ||
                   key == "sample_interval") {
            Expected<uint64_t> n = v.asU64("run field '" + key + "'");
            if (!n)
                return n.error();
            if (key == "smt")
                out->smt = static_cast<int>(n.value());
            else if (key == "cores")
                out->cores = static_cast<int>(n.value());
            else if (key == "instrs")
                out->instrs = n.value();
            else if (key == "warmup")
                out->warmup = n.value();
            else if (key == "seed")
                out->seed = n.value();
            else
                out->sampleInterval = n.value();
        } else {
            // Same strictness as sweep specs: a typo must not silently
            // change what gets simulated.
            return Error::invalidArgument("unknown run request key '" +
                                          key + "'");
        }
    }
    return out->validate();
}

} // namespace

Expected<Request>
Request::parse(std::string_view line)
{
    if (line.size() > kMaxRequestBytes)
        return Error::invalidArgument(
            "request exceeds " + std::to_string(kMaxRequestBytes) +
            " bytes (" + std::to_string(line.size()) + ")");
    Expected<obs::JsonValue> docOr = obs::parseJson(line);
    if (!docOr)
        return Error::invalidArgument("malformed request JSON: " +
                                      docOr.error().message);
    const obs::JsonValue& root = docOr.value();
    if (!root.isObject())
        return Error::invalidArgument("request must be a JSON object");

    Expected<std::string> typeOr = readString(root, "type", true);
    if (!typeOr)
        return typeOr.error();
    const std::string& type = typeOr.value();

    Request req;
    if (type == "run")
        req.type = RequestType::Run;
    else if (type == "sweep")
        req.type = RequestType::Sweep;
    else if (type == "stats")
        req.type = RequestType::Stats;
    else if (type == "metrics")
        req.type = RequestType::Metrics;
    else if (type == "cancel")
        req.type = RequestType::Cancel;
    else if (type == "shutdown")
        req.type = RequestType::Shutdown;
    else if (type == "shard")
        req.type = RequestType::Shard;
    else if (type == "cache_result")
        req.type = RequestType::CacheResult;
    else
        return Error::invalidArgument("unknown request type '" + type +
                                      "'");

    const bool needsId = req.type == RequestType::Run ||
                         req.type == RequestType::Sweep ||
                         req.type == RequestType::Cancel ||
                         req.type == RequestType::Shard ||
                         req.type == RequestType::CacheResult;
    Expected<std::string> idOr = readString(root, "id", needsId);
    if (!idOr)
        return idOr.error();
    req.id = idOr.value();
    if (needsId && req.id.empty())
        return Error::invalidArgument("request 'id' must be non-empty");

    if (const obs::JsonValue* p = root.find("priority")) {
        if (!p->isNumber() ||
            p->number != static_cast<double>(
                             static_cast<int64_t>(p->number)) ||
            p->number < kMinPriority || p->number > kMaxPriority)
            return Error::invalidArgument(
                "request 'priority' must be an integer in [" +
                std::to_string(kMinPriority) + "," +
                std::to_string(kMaxPriority) + "]");
        req.priority = static_cast<int>(p->number);
    }
    Expected<uint64_t> timeoutOr = readU64(root, "timeout_cycles", 0);
    if (!timeoutOr)
        return timeoutOr.error();
    req.timeoutCycles = timeoutOr.value();

    // Optional tracing context. Absent = tracing off; present, it must
    // be exactly the TraceContext wire shape on a traceable request —
    // a truncated or corrupted id is a protocol violation, never a
    // silently different trace.
    if (const obs::JsonValue* tr = root.find("trace")) {
        const bool traceable = req.type == RequestType::Run ||
                               req.type == RequestType::Sweep ||
                               req.type == RequestType::Shard;
        if (!traceable)
            return Error::invalidArgument("request type '" + type +
                                          "' does not accept 'trace'");
        if (!tr->isString() || !obs::TraceContext::parse(tr->string))
            return Error::invalidArgument(
                "request 'trace' must be 32 lowercase hex chars, '-', "
                "16 lowercase hex chars");
        req.trace = tr->string;
    }

    switch (req.type) {
      case RequestType::Sweep: {
        const obs::JsonValue* spec = root.find("spec");
        if (spec == nullptr)
            return Error::invalidArgument(
                "sweep request is missing 'spec'");
        Expected<sweep::SweepSpec> specOr =
            sweep::SweepSpec::fromJsonValue(*spec);
        if (!specOr)
            return specOr.error();
        req.spec = std::move(specOr.value());
        for (const auto& [key, v] : root.object) {
            (void)v;
            if (key != "type" && key != "id" && key != "priority" &&
                key != "timeout_cycles" && key != "spec" &&
                key != "trace")
                return Error::invalidArgument(
                    "unknown sweep request key '" + key + "'");
        }
        break;
      }
      case RequestType::Run:
        if (Status st = parseRunPayload(root, &req.run); !st)
            return st.error();
        break;
      case RequestType::Cancel: {
        Expected<std::string> targetOr =
            readString(root, "target", true);
        if (!targetOr)
            return targetOr.error();
        req.target = targetOr.value();
        if (req.target.empty())
            return Error::invalidArgument(
                "cancel 'target' must be non-empty");
        break;
      }
      case RequestType::Shard: {
        const obs::JsonValue* spec = root.find("spec");
        if (spec == nullptr)
            return Error::invalidArgument(
                "shard request is missing 'spec'");
        Expected<sweep::SweepSpec> specOr =
            sweep::SweepSpec::fromJsonValue(*spec);
        if (!specOr)
            return specOr.error();
        req.spec = std::move(specOr.value());
        const obs::JsonValue* idx = root.find("index");
        if (idx == nullptr)
            return Error::invalidArgument(
                "shard request is missing 'index'");
        Expected<uint64_t> idxOr = idx->asU64("shard request 'index'");
        if (!idxOr)
            return idxOr.error();
        req.shardIndex = idxOr.value();
        Expected<uint64_t> hbOr = readU64(root, "heartbeat_ms", 0);
        if (!hbOr)
            return hbOr.error();
        req.heartbeatMs = hbOr.value();
        if (const obs::JsonValue* rc = root.find("remote_cache")) {
            if (!rc->isBool())
                return Error::invalidArgument(
                    "shard request 'remote_cache' must be a boolean");
            req.remoteCache = rc->boolean;
        }
        for (const auto& [key, v] : root.object) {
            (void)v;
            if (key != "type" && key != "id" && key != "priority" &&
                key != "timeout_cycles" && key != "spec" &&
                key != "index" && key != "heartbeat_ms" &&
                key != "remote_cache" && key != "trace")
                return Error::invalidArgument(
                    "unknown shard request key '" + key + "'");
        }
        break;
      }
      case RequestType::CacheResult: {
        const obs::JsonValue* hit = root.find("hit");
        if (hit == nullptr || !hit->isBool())
            return Error::invalidArgument(
                "cache_result 'hit' must be a boolean");
        req.cacheHit = hit->boolean;
        const obs::JsonValue* data = root.find("data");
        if (req.cacheHit) {
            if (data == nullptr || !data->isString())
                return Error::invalidArgument(
                    "cache_result hit requires a 'data' hex string");
            auto bytes = common::hexDecode(data->string);
            if (!bytes)
                return Error::invalidArgument(
                    "cache_result 'data' is not valid hex");
            req.cacheData = std::move(*bytes);
        } else if (data != nullptr) {
            return Error::invalidArgument(
                "cache_result miss must not carry 'data'");
        }
        for (const auto& [key, v] : root.object) {
            (void)v;
            if (key != "type" && key != "id" && key != "hit" &&
                key != "data")
                return Error::invalidArgument(
                    "unknown cache_result key '" + key + "'");
        }
        break;
      }
      case RequestType::Stats:
      case RequestType::Metrics:
      case RequestType::Shutdown:
        break;
    }
    return req;
}

std::string
acceptedLine(const std::string& id, size_t queueDepth)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("event").value("accepted");
    w.key("queue_depth").value(static_cast<uint64_t>(queueDepth));
    w.endObject();
    return w.str();
}

std::string
progressLine(const std::string& id, const api::ProgressEvent& ev)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("event").value("progress");
    w.key("index").value(ev.index);
    w.key("total").value(ev.total);
    w.key("key").value(ev.key);
    w.key("status").value(ev.status);
    w.key("retries").value(static_cast<int64_t>(ev.retries));
    w.key("cached").value(ev.fromCache);
    w.endObject();
    return w.str();
}

std::string
doneLine(const std::string& id, uint64_t cachedShards,
         uint64_t simulatedShards, const std::string& reportJson)
{
    // `report` must stay the FINAL member and be embedded verbatim:
    // clients slice it out by position to recover the byte-identical
    // offline artifact (see extractReport).
    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("event").value("done");
    w.key("cached_shards").value(cachedShards);
    w.key("simulated_shards").value(simulatedShards);
    w.endObject();
    std::string line = w.str();
    line.pop_back(); // drop the closing '}'
    line += ",\"report\":";
    line += reportJson;
    line += "}";
    return line;
}

std::string
errorLine(const std::string& id, const common::Error& e)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("event").value("error");
    w.key("code").value(common::errorCodeName(e.code));
    w.key("message").value(e.message);
    // Structured origin of a validation failure, surfaced verbatim so
    // a client can point at the offending request key. Absent (not
    // empty) when the error is not tied to one field — historical
    // error lines keep their exact bytes.
    if (!e.field.empty())
        w.key("field").value(e.field);
    w.endObject();
    return w.str();
}

std::string
metricsLine(const std::string& id, const std::string& metricsJson)
{
    // Like doneLine: the registry dump is already deterministic JSON
    // from the same writer, so it is embedded verbatim as the final
    // member instead of being re-parsed.
    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("event").value("metrics");
    w.endObject();
    std::string line = w.str();
    line.pop_back(); // drop the closing '}'
    line += ",\"metrics\":";
    line += metricsJson;
    line += "}";
    return line;
}

std::string
heartbeatLine(const std::string& id, const std::string& trace)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("event").value("heartbeat");
    if (!trace.empty())
        w.key("trace").value(trace);
    w.endObject();
    return w.str();
}

std::string
cacheGetLine(const std::string& id, uint64_t key)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("event").value("cache_get");
    w.key("key").value(cacheKeyHex(key));
    w.endObject();
    return w.str();
}

std::string
cachePutLine(const std::string& id, uint64_t key,
             const std::vector<uint8_t>& entry)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("event").value("cache_put");
    w.key("key").value(cacheKeyHex(key));
    w.key("data").value(common::hexEncode(entry));
    w.endObject();
    return w.str();
}

std::string
shardDoneLine(const std::string& id, uint64_t index, bool cached,
              const std::vector<uint8_t>& entry,
              const std::string& trace, uint64_t queueUs,
              uint64_t execUs)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("event").value("shard_done");
    w.key("index").value(index);
    w.key("cached").value(cached);
    if (!trace.empty()) {
        w.key("trace").value(trace);
        w.key("queue_us").value(queueUs);
        w.key("exec_us").value(execUs);
    }
    w.key("data").value(common::hexEncode(entry));
    w.endObject();
    return w.str();
}

std::string
cacheKeyHex(uint64_t key)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(key));
    return std::string(hex, 16);
}

Expected<uint64_t>
parseCacheKeyHex(const std::string& text)
{
    if (text.size() != 16)
        return Error::invalidArgument(
            "cache key must be exactly 16 hex digits");
    uint64_t key = 0;
    for (char c : text) {
        int nibble;
        if (c >= '0' && c <= '9')
            nibble = c - '0';
        else if (c >= 'a' && c <= 'f')
            nibble = c - 'a' + 10;
        else
            return Error::invalidArgument(
                "cache key must be lowercase hex");
        key = (key << 4) | static_cast<uint64_t>(nibble);
    }
    return key;
}

Expected<std::string>
extractReport(std::string_view line)
{
    const std::string_view marker = "\"report\":";
    const size_t at = line.find(marker);
    if (at == std::string_view::npos || line.empty() ||
        line.back() != '}')
        return Error::invalidArgument(
            "not a done line: no report member to extract");
    return std::string(
        line.substr(at + marker.size(),
                    line.size() - (at + marker.size()) - 1));
}

void
setNoDelay(int fd)
{
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace p10ee::service
