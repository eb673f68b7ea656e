#include "sweep/spec.h"

#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "obs/json.h"
#include "trace/replay.h"
#include "workloads/registry.h"

namespace p10ee::sweep {

using common::Error;
using common::Expected;
using common::Status;

std::string
ShardSpec::key() const
{
    std::ostringstream os;
    os << configName << '/' << profile.name << "/smt" << smt << "/seed"
       << seedIndex;
    // 1-core keys stay exactly historical (bare-core identity).
    if (cores >= 2)
        os << "/c" << cores;
    return os.str();
}

Status
SweepSpec::validate() const
{
    std::string problems;
    auto bad = [&problems](const std::string& p) {
        if (!problems.empty())
            problems += "; ";
        problems += p;
    };

    if (configs.empty())
        bad("configs must name at least one machine");
    if (workloads.empty())
        bad("workloads must name at least one profile");
    if (smt.empty())
        bad("smt must list at least one thread count");
    for (int t : smt)
        if (t != 1 && t != 2 && t != 4 && t != 8)
            bad("smt entries must be 1, 2, 4 or 8 (got " +
                std::to_string(t) + ")");
    if (cores.empty())
        bad("cores must list at least one chip size");
    for (int n : cores)
        if (n < 1 || n > 16)
            bad("cores entries must be in [1, 16] (got " +
                std::to_string(n) + ")");
    if (seeds < 1)
        bad("seeds must be >= 1");
    if (instrs == 0)
        bad("instrs must be > 0");
    if (maxRetries < 0 || maxRetries > 16)
        bad("max_retries must be in [0, 16]");
    if (!(infraFailProb >= 0.0 && infraFailProb < 1.0))
        bad("infra_fail_prob must be in [0, 1)");

    if (!problems.empty())
        return Error::invalidConfig("sweep spec: " + problems);
    return common::okStatus();
}

uint64_t
SweepSpec::shardCount() const
{
    return static_cast<uint64_t>(configs.size()) * workloads.size() *
           smt.size() * cores.size() * seeds;
}

Expected<core::CoreConfig>
SweepSpec::resolveConfig(const std::string& name)
{
    if (name == "power9")
        return core::power9();
    if (name == "power10")
        return core::power10();
    const std::string prefix = "ablate:";
    if (name.rfind(prefix, 0) == 0) {
        const std::string group = name.substr(prefix.size());
        for (int g = 0;
             g < static_cast<int>(core::AblationGroup::NumGroups); ++g) {
            const auto ag = static_cast<core::AblationGroup>(g);
            if (core::ablationGroupName(ag) == group)
                return core::power10Without(ag);
        }
        return Error::notFound("unknown ablation group '" + group +
                               "' in config '" + name + "'");
    }
    return Error::notFound(
        "unknown config '" + name +
        "' (expected power9, power10 or ablate:<group>)");
}

Expected<std::vector<ShardSpec>>
SweepSpec::expand() const
{
    if (Status st = validate(); !st)
        return st.error();

    // Resolve names once up front so a bad name fails the whole sweep
    // before any shard runs.
    std::vector<core::CoreConfig> cfgs;
    cfgs.reserve(configs.size());
    for (const std::string& name : configs) {
        Expected<core::CoreConfig> cfg = resolveConfig(name);
        if (!cfg)
            return cfg.error();
        if (Status st = cfg.value().validate(); !st)
            return st.error();
        cfgs.push_back(std::move(cfg.value()));
    }
    // Workload names go through the frontend registry so external
    // formats ("trace:<path>") expand exactly like built-in profiles.
    trace::registerTraceFrontend();
    std::vector<workloads::WorkloadProfile> profs;
    profs.reserve(workloads.size());
    for (const std::string& name : workloads) {
        Expected<workloads::WorkloadProfile> p =
            workloads::resolveWorkload(name);
        if (!p)
            return p.error();
        profs.push_back(std::move(p.value()));
    }

    // Nested-loop expansion order (configs > workloads > smt > cores >
    // seeds) is part of the format: the shard index is the identity
    // that keys RNG streams and the merge fold.
    std::vector<ShardSpec> shards;
    shards.reserve(shardCount());
    uint64_t index = 0;
    for (size_t c = 0; c < cfgs.size(); ++c)
        for (size_t w = 0; w < profs.size(); ++w)
            for (int threads : smt)
                for (int chipCores : cores)
                    for (uint64_t s = 0; s < seeds; ++s) {
                        ShardSpec shard;
                        shard.index = index++;
                        shard.configName = configs[c];
                        shard.config = cfgs[c];
                        shard.profile = profs[w];
                        if (s != 0)
                            shard.profile.seed =
                                common::splitSeed(profs[w].seed, s);
                        shard.smt = threads;
                        shard.cores = chipCores;
                        shard.seedIndex = s;
                        shards.push_back(std::move(shard));
                    }
    return shards;
}

std::string
SweepSpec::toJson() const
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("configs").beginArray();
    for (const std::string& c : configs)
        w.value(c);
    w.endArray();
    w.key("workloads").beginArray();
    for (const std::string& wl : workloads)
        w.value(wl);
    w.endArray();
    w.key("smt").beginArray();
    for (int t : smt)
        w.value(t);
    w.endArray();
    w.key("cores").beginArray();
    for (int n : cores)
        w.value(n);
    w.endArray();
    w.key("seeds").value(seeds);
    w.key("instrs").value(instrs);
    w.key("warmup").value(warmup);
    w.key("max_cycles").value(maxCycles);
    w.key("max_retries").value(maxRetries);
    w.key("infra_fail_prob").value(infraFailProb);
    w.key("seed").value(seed);
    w.key("sample_interval").value(sampleInterval);
    w.key("shard_reports_dir").value(shardReportsDir);
    w.endObject();
    return w.str();
}

namespace {

Status
readStringArray(const obs::JsonValue& v, const std::string& what,
                std::vector<std::string>* out)
{
    if (!v.isArray())
        return Error::invalidConfig(what + " must be an array of strings");
    out->clear();
    for (const obs::JsonValue& e : v.array) {
        if (!e.isString())
            return Error::invalidConfig(what +
                                        " must contain only strings");
        out->push_back(e.string);
    }
    return common::okStatus();
}

} // namespace

Expected<SweepSpec>
SweepSpec::fromJson(const std::string& text)
{
    Expected<obs::JsonValue> doc = obs::parseJson(text);
    if (!doc)
        return doc.error();
    return fromJsonValue(doc.value());
}

Expected<SweepSpec>
SweepSpec::fromJsonValue(const obs::JsonValue& root)
{
    if (!root.isObject())
        return Error::invalidConfig("sweep spec must be a JSON object");

    SweepSpec spec;
    for (const auto& [key, v] : root.object) {
        if (key == "configs") {
            if (Status st = readStringArray(v, "configs", &spec.configs);
                !st)
                return st.error();
        } else if (key == "workloads") {
            if (Status st =
                    readStringArray(v, "workloads", &spec.workloads);
                !st)
                return st.error();
        } else if (key == "smt") {
            if (!v.isArray())
                return Error::invalidConfig(
                    "smt must be an array of integers");
            spec.smt.clear();
            for (const obs::JsonValue& e : v.array) {
                Expected<uint64_t> n = e.asU64("smt entry");
                if (!n)
                    return n.error();
                spec.smt.push_back(static_cast<int>(n.value()));
            }
        } else if (key == "cores") {
            if (!v.isArray())
                return Error::invalidConfig(
                    "cores must be an array of integers");
            spec.cores.clear();
            for (const obs::JsonValue& e : v.array) {
                Expected<uint64_t> n = e.asU64("cores entry");
                if (!n)
                    return n.error();
                spec.cores.push_back(static_cast<int>(n.value()));
            }
        } else if (key == "seeds") {
            Expected<uint64_t> n = v.asU64("seeds");
            if (!n)
                return n.error();
            spec.seeds = n.value();
        } else if (key == "instrs") {
            Expected<uint64_t> n = v.asU64("instrs");
            if (!n)
                return n.error();
            spec.instrs = n.value();
        } else if (key == "warmup") {
            Expected<uint64_t> n = v.asU64("warmup");
            if (!n)
                return n.error();
            spec.warmup = n.value();
        } else if (key == "max_cycles") {
            Expected<uint64_t> n = v.asU64("max_cycles");
            if (!n)
                return n.error();
            spec.maxCycles = n.value();
        } else if (key == "max_retries") {
            Expected<uint64_t> n = v.asU64("max_retries");
            if (!n)
                return n.error();
            spec.maxRetries = static_cast<int>(n.value());
        } else if (key == "infra_fail_prob") {
            if (!v.isNumber())
                return Error::invalidConfig(
                    "infra_fail_prob must be a number");
            spec.infraFailProb = v.number;
        } else if (key == "seed") {
            Expected<uint64_t> n = v.asU64("seed");
            if (!n)
                return n.error();
            spec.seed = n.value();
        } else if (key == "sample_interval") {
            Expected<uint64_t> n = v.asU64("sample_interval");
            if (!n)
                return n.error();
            spec.sampleInterval = n.value();
        } else if (key == "shard_reports_dir") {
            if (!v.isString())
                return Error::invalidConfig(
                    "shard_reports_dir must be a string");
            spec.shardReportsDir = v.string;
        } else {
            // A typo in an axis name must not silently shrink a sweep.
            return Error::invalidConfig("unknown sweep spec key '" +
                                        key + "'");
        }
    }

    if (Status st = spec.validate(); !st)
        return st.error();
    return spec;
}

Expected<SweepSpec>
SweepSpec::fromJsonFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Error::notFound("cannot open sweep spec '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    Expected<SweepSpec> spec = fromJson(buf.str());
    if (!spec)
        return Error(spec.error().code,
                     path + ": " + spec.error().message);
    return spec;
}

} // namespace p10ee::sweep
