/**
 * @file
 * `p10perf` — the driver of the repository benchmark (see README.md).
 *
 *   p10perf --workload NAME --seed N --seconds S --trace 0|1
 *           --work DIR --out RESULTS.json
 *
 * Runs one workload closed-loop from this thread: set-up (repeated,
 * the median is reported), one untimed warm-up pass that fixes the
 * reference report digest, then timed passes until S seconds have
 * passed. With --trace 1 the timed passes alternate with traced passes
 * that rebuild every shard from the public calls of each layer, with a
 * span around each call, and the run reports per-layer metrics instead
 * of end-to-end ones.
 *
 * Every metric is printed as `name value unit`; the results file holds
 * medians, quartiles and sample counts, the output checks and the
 * report digest; the last line of stdout is one JSON summary. Exit
 * status: 0 when every output check passed, 1 when one failed, 2 on a
 * usage or set-up error.
 */

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "api/service.h"
#include "chip/chip.h"
#include "common/hash.h"
#include "common/rng.h"
#include "fabric/fleet.h"
#include "fabric/spawn.h"
#include "fabric/wire.h"
#include "obs/report.h"
#include "power/energy.h"
#include "service/protocol.h"
#include "sweep/cache.h"
#include "sweep/pool.h"
#include "sweep/spec.h"
#include "trace/container.h"
#include "trace/replay.h"
#include "workloads/registry.h"
#include "workloads/spec_profiles.h"

using namespace p10ee;

namespace {

using Clock = std::chrono::steady_clock;
using common::Expected;
using common::Status;

/** Pool threads of every in-process pass and workers of the fleet:
    half of a 4-thread host, so the numbers measure the program rather
    than the host's scheduler. */
constexpr int kJobs = 2;
/** Set-ups per run; setup_s is their median. The first comes before
    the warm-up pass, the others are spread evenly over the timed
    passes: host speed drifts over seconds, and back-to-back repeats
    all land in the same state. As many as fit kSetupBudgetShare of the
    timed window at the first one's cost, within kSetupMinRepeats and
    kSetupRepeats. */
constexpr size_t kSetupRepeats = 45;
constexpr size_t kSetupMinRepeats = 3;
constexpr double kSetupBudgetShare = 0.25;
/** Instructions pulled by each isolated source probe. */
constexpr uint64_t kSourceProbeInstrs = 200000;
/** evalCounters calls timed per shard by the power probe. */
constexpr int kPowerProbeRepeats = 9;
/** Layer self-times plus pool idle of a traced pass must add up to
    jobs x the wall time of the same pass run untraced within this
    share. */
constexpr double kLayerSumTolerance = 0.15;
/** Instructions recorded into each chip_trace trace. */
constexpr uint64_t kTraceInstrs = 1000000;

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------------
// Statistics and results

/** Median and quartiles of a sample, with its size. */
struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    size_t n = 0;
};

/** Quartiles as Python's statistics.quantiles(values, n=4) gives them
    (its default "exclusive" method), so in-run spreads read the same
    as the spreads compare.py computes across runs. */
Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
    if (n < 2) {
        s.q1 = s.q3 = s.median;
        return s;
    }
    auto quartile = [&](long i) {
        const long m = static_cast<long>(n) + 1;
        const long j =
            std::clamp<long>(i * m / 4, 1, static_cast<long>(n) - 1);
        const long delta = i * m - j * 4;
        return (v[static_cast<size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
               4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

/** Nearest-rank percentile @p p (0..100) of a non-empty sample. */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

struct Metric
{
    std::string name;
    std::string unit;
    Summary s;
};

Metric
single(const std::string& name, const std::string& unit, double value)
{
    return {name, unit, summarize({value})};
}

struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** Every digit a double carries, as a JSON number. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
hex64(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------------
// Spans

struct Span
{
    const char* name = ""; ///< a string literal
    int tid = 0;
    double startUs = 0.0;
    double durUs = 0.0; ///< < 0 marks an instant event
    /** Shard index; -1 for spans that cover a whole pass. */
    int64_t shard = -1;
};

/** The spans of one thread, stamped against the run's epoch. */
struct SpanLog
{
    Clock::time_point epoch;
    int tid = 0;
    std::vector<Span> spans;

    /** Close a span opened at @p begin; adds its duration to @p acc. */
    void
    close(const char* name, int64_t shard, Clock::time_point begin,
          double& acc)
    {
        const Clock::time_point end = Clock::now();
        const double dur = usBetween(begin, end);
        spans.push_back({name, tid, usBetween(epoch, begin), dur, shard});
        acc += dur;
    }

    void
    instant(const char* name, int64_t shard)
    {
        spans.push_back(
            {name, tid, usBetween(epoch, Clock::now()), -1.0, shard});
    }
};

/** Run @p f inside a span; returns f's result. */
template <typename F>
auto
timeSpan(SpanLog& log, const char* name, int64_t shard, double& acc, F&& f)
{
    const Clock::time_point begin = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
        f();
        log.close(name, shard, begin, acc);
    } else {
        auto out = f();
        log.close(name, shard, begin, acc);
        return out;
    }
}

/** Chrome/Perfetto trace-event JSON of @p spans. */
std::string
chromeTrace(const std::vector<Span>& spans)
{
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans) {
        os << (first ? "" : ",\n") << "{\"name\":" << jsonString(s.name)
           << ",\"cat\":\"p10perf\",\"pid\":1,\"tid\":" << s.tid
           << ",\"ts\":" << num(s.startUs);
        if (s.durUs < 0.0)
            os << ",\"ph\":\"i\",\"s\":\"t\"";
        else
            os << ",\"ph\":\"X\",\"dur\":" << num(s.durUs);
        os << ",\"args\":{\"shard\":" << s.shard << "}}";
        first = false;
    }
    os << "]}\n";
    return os.str();
}

// ---------------------------------------------------------------------
// Workloads

enum class CacheUse
{
    None, ///< no shard cache
    Cold, ///< every pass writes an empty cache directory
    Warm, ///< every pass reads a directory filled before the passes
};

struct Workload
{
    std::string name;
    sweep::SweepSpec spec;
    CacheUse cache = CacheUse::None;
    bool fleet = false;
};

/** Workload scheme of the seeded built-in profiles. */
constexpr const char* kSeededScheme = "seeded";

/**
 * Register "seeded:<profile>@<seed>": the built-in profile with its
 * stream realization derived from the benchmark seed, as the sweep's
 * seeds axis derives replicas (splitSeed). The resolved profile is a
 * plain synthetic one, so shards simulate, key and report exactly as
 * under the bare name. The seed varies the streams, not the program
 * mix: the mix sets host cost per instruction, set-up cost and peak
 * memory, and a seeded choice among the 13 profiles moves those by far
 * more than their regression bounds from seed to seed.
 */
void
registerSeededFrontend()
{
    workloads::WorkloadFrontend fe;
    fe.scheme = kSeededScheme;
    fe.resolve =
        [](const std::string& rest) -> Expected<workloads::WorkloadProfile> {
        const size_t at = rest.rfind('@');
        const workloads::WorkloadProfile* p =
            at == std::string::npos
                ? nullptr
                : workloads::findProfile(rest.substr(0, at));
        if (p == nullptr)
            return common::Error::notFound("no seeded profile '" + rest +
                                           "'");
        workloads::WorkloadProfile out = *p;
        out.seed = common::splitSeed(
            p->seed, std::strtoull(rest.c_str() + at + 1, nullptr, 10));
        return out;
    };
    // Never reached: the profiles resolve() returns are not bound to
    // this frontend, so makeSource builds their synthetic walkers.
    fe.makeSource = [](const workloads::WorkloadProfile& p, int)
        -> Expected<std::unique_ptr<workloads::CheckpointableSource>> {
        return common::Error::invalidArgument(p.name +
                                              " is not frontend-bound");
    };
    workloads::registerFrontend(std::move(fe));
}

std::vector<std::string>
seeded(const std::vector<std::string>& profiles, uint64_t seed)
{
    std::vector<std::string> out;
    for (const std::string& p : profiles)
        out.push_back(std::string(kSeededScheme) + ":" + p + "@" +
                      std::to_string(seed));
    return out;
}

std::vector<std::string>
allProfiles()
{
    std::vector<std::string> out;
    for (const auto& p : workloads::specint2017())
        out.push_back(p.name);
    for (const auto& p : workloads::extraGroups())
        out.push_back(p.name);
    return out;
}

const std::vector<std::string> kWorkloadNames = {
    "core_long", "chip_trace", "storm_cold", "storm_warm", "fleet"};

/**
 * The workload's grid for @p seed. chip_trace's workloads are filled
 * in by recordTraces(), which generates its inputs. The fleet's
 * workers resolve workload names themselves and know no "seeded"
 * scheme, so its seed changes only SweepSpec::seed, which nothing a
 * 1-core shard simulates reads: every seed simulates the same streams,
 * and only the report's seed field, and so its digest, differs.
 */
Workload
makeWorkload(const std::string& name, uint64_t seed)
{
    Workload w;
    w.name = name;
    w.spec.seed = seed;
    if (name == "core_long") {
        // Long shards: per-shard fixed costs are a few percent, so the
        // core advance loop and power evaluation dominate.
        w.spec.configs = {"power10", "power9"};
        w.spec.workloads = seeded(
            {"gcc", "mcf", "omnetpp", "x264", "xz", "python_interp"},
            seed);
        w.spec.smt = {1, 4};
        w.spec.instrs = 400000;
        w.spec.warmup = 100000;
    } else if (name == "chip_trace") {
        // The one workload with multi-core chips and trace replay: the
        // c1 shards replay the same streams on the bare core.
        w.spec.configs = {"power10"};
        w.spec.smt = {2};
        w.spec.cores = {1, 2, 4};
        w.spec.instrs = 400000;
        w.spec.warmup = 50000;
    } else if (name == "storm_cold" || name == "storm_warm") {
        // Many short shards at the spec defaults (20k instructions,
        // 5k warmup): per-shard costs outside simulation dominate.
        w.spec.configs = {"power10", "power9"};
        w.spec.workloads = seeded(allProfiles(), seed);
        w.spec.smt = {1, 2, 4};
        w.spec.seeds = 4;
        w.cache = name == "storm_cold" ? CacheUse::Cold : CacheUse::Warm;
    } else if (name == "fleet") {
        w.spec.configs = {"power10"};
        w.spec.workloads = {"perlbench", "leela", "exchange2",
                            "ml_analytics"};
        w.spec.smt = {1, 2};
        w.spec.seeds = 8;
        w.spec.instrs = 100000;
        w.spec.warmup = 10000;
        w.fleet = true;
    }
    return w;
}

/** chip_trace's inputs: mcf and x264 streams at @p seed, recorded into
    delta-encoded traces under @p dir. Input generation, not timed. */
Status
recordTraces(Workload& w, uint64_t seed, const std::string& dir)
{
    for (const char* name : {"mcf", "x264"}) {
        workloads::WorkloadProfile profile =
            workloads::profileByName(name);
        profile.seed = common::splitSeed(profile.seed, seed);
        Expected<std::unique_ptr<workloads::CheckpointableSource>> src =
            workloads::makeSource(profile, 0);
        if (!src)
            return src.error();
        trace::TraceMeta meta;
        meta.name = name;
        meta.source = std::string("synthetic:") + name + " seed " +
                      std::to_string(seed);
        const std::string path = dir + "/" + name + ".p10trace";
        const trace::TraceData data = trace::recordTrace(
            *src.value(), kTraceInstrs, meta, trace::kEncodingDelta);
        if (Status st = data.save(path); !st)
            return st;
        w.spec.workloads.push_back(std::string(trace::kScheme) + ":" +
                                   path);
    }
    return common::okStatus();
}

// ---------------------------------------------------------------------
// Fleet workers

/** Spawned p10d workers; reaped on destruction. */
class Workers
{
  public:
    Workers() = default;
    ~Workers() { reap(); }
    Workers(const Workers&) = delete;
    Workers& operator=(const Workers&) = delete;

    /** Spawn @p n workers, one span (and spawn-time sample) each. */
    Status
    spawn(int n, SpanLog& log, std::vector<double>& spawnMs)
    {
        for (int i = 0; i < n; ++i) {
            double us = 0.0;
            Expected<fabric::SpawnedWorker> w =
                timeSpan(log, "fabric::spawnWorker", -1, us, [] {
                    return fabric::spawnWorker(P10PERF_P10D_BIN);
                });
            if (!w)
                return w.error();
            workers_.push_back(w.value());
            spawnMs.push_back(us / 1000.0);
        }
        return common::okStatus();
    }

    void
    reap()
    {
        for (fabric::SpawnedWorker& w : workers_)
            fabric::reapWorker(w, /*kill=*/true);
        workers_.clear();
    }

    std::vector<fabric::WorkerAddress>
    addresses() const
    {
        std::vector<fabric::WorkerAddress> out;
        for (const fabric::SpawnedWorker& w : workers_)
            out.push_back({"127.0.0.1", w.port});
        return out;
    }

  private:
    std::vector<fabric::SpawnedWorker> workers_;
};

// ---------------------------------------------------------------------
// Set-up

/** What one set-up leaves behind for the passes. */
struct SetupProducts
{
    std::vector<sweep::ShardSpec> shards;
    /** One source per distinct workload; holding them keeps trace
        containers loaded for the passes. */
    std::vector<std::unique_ptr<workloads::CheckpointableSource>> sources;
};

/**
 * The one-time calls before the first pass: expand(), one makeSource
 * per distinct workload (trace load and verify), ShardCache::prepare
 * when the workload caches, and spawnWorker for the fleet.
 */
Expected<SetupProducts>
setUp(const Workload& w, const std::string& cacheDir, Workers& workers,
      SpanLog& log, std::vector<double>& spawnMs)
{
    SetupProducts out;
    double us = 0.0;
    Expected<std::vector<sweep::ShardSpec>> shards = timeSpan(
        log, "SweepSpec::expand", -1, us, [&] { return w.spec.expand(); });
    if (!shards)
        return shards.error();
    out.shards = std::move(shards.value());
    std::set<std::string> seen;
    for (const sweep::ShardSpec& s : out.shards) {
        if (!seen.insert(s.profile.name).second)
            continue;
        Expected<std::unique_ptr<workloads::CheckpointableSource>> src =
            timeSpan(log, "workloads::makeSource", -1, us,
                     [&] { return workloads::makeSource(s.profile, 0); });
        if (!src)
            return src.error();
        out.sources.push_back(std::move(src.value()));
    }
    if (!cacheDir.empty()) {
        sweep::ShardCache cache(cacheDir);
        if (Status st = timeSpan(log, "ShardCache::prepare", -1, us,
                                 [&] { return cache.prepare(); });
            !st)
            return st.error();
    }
    if (w.fleet)
        if (Status st = workers.spawn(kJobs, log, spawnMs); !st)
            return st.error();
    return out;
}

// ---------------------------------------------------------------------
// Passes

/** A merged report's JSON. Its git field names the build, not the
    spec, so it is pinned: parent and change runs of the same spec must
    digest alike. */
std::string
reportJson(obs::JsonReport report)
{
    report.meta().git = "unknown";
    return report.toJson();
}

std::string
digestOf(const std::string& json)
{
    return hex64(common::fnv1a64(json));
}

struct PassOutcome
{
    double wallS = 0.0;
    sweep::SweepResult result;
    std::string digest;
    fabric::FleetStats fleetStats;
};

/**
 * One untraced pass: the sweep, its merged report and the report JSON,
 * which is what a p10sweep_cli or p10fleet invocation does.
 */
Expected<PassOutcome>
runPass(const Workload& w, const std::string& cacheDir,
        const Workers& workers, bool viaFleet,
        const api::ProgressFn& onProgress = nullptr)
{
    PassOutcome out;
    const Clock::time_point begin = Clock::now();
    if (viaFleet) {
        fabric::FleetOptions opts;
        opts.workers = workers.addresses();
        opts.onProgress = onProgress;
        fabric::FleetRunner runner(w.spec, std::move(opts));
        Expected<sweep::SweepResult> r = runner.run();
        if (!r)
            return r.error();
        out.result = std::move(r.value());
        out.fleetStats = runner.stats();
    } else {
        api::Service::Options sopts;
        sopts.cacheDir = cacheDir;
        api::Service service(sopts);
        api::SweepOptions opts;
        opts.jobs = kJobs;
        Expected<sweep::SweepResult> r = service.runSweep(w.spec, opts);
        if (!r)
            return r.error();
        out.result = std::move(r.value());
    }
    out.digest =
        digestOf(reportJson(api::Service::mergedReport(w.spec, out.result)));
    out.wallS = usBetween(begin, Clock::now()) / 1e6;
    return out;
}

/** The cache entry of a result: equal entries mean equal results
    (host wall time and cache provenance are not part of it). */
std::vector<uint8_t>
entryOf(const sweep::SweepSpec& spec, const sweep::ShardSpec& shard,
        const api::ShardResult& r)
{
    return sweep::ShardCache::encodeEntry(spec, shard, r);
}

/** What one traced shard spent where. */
struct ShardTrace
{
    bool simulated = false;
    double busyUs = 0.0; ///< the whole shard on its pool thread
    double makeSourceUs = 0.0;
    uint64_t sources = 0;
    double constructUs = 0.0;
    double advanceUs = 0.0;
    double measureUs = 0.0;
    double cacheUs = 0.0;
    uint64_t warmupInstrs = 0;  ///< committed by advance(), all cores
    uint64_t measureInstrs = 0; ///< committed by measure(), all cores
    uint64_t powerCalls = 0;    ///< evalCounters calls inside measure()
    uint64_t epochs = 0;
    int cores = 1;
    /** Core 0's measured window: the power probe's input. */
    core::RunResult firstCore;
};

/**
 * The ShardResult that SweepRunner::runShard (src/sweep/runner.cpp)
 * fills from a chip run; this mirrors it and must follow its changes.
 * The shard's identity (index, key, cores, trace provenance) comes from
 * the sweep, not the simulation, so it is copied from @p reference;
 * every field the simulation produces is filled from @p run, so a
 * rebuilt result equals the reference only when the simulation does. A
 * timed-out run is not ok (runShard also records an error for it), so
 * it never equals an ok reference.
 */
api::ShardResult
assemble(const api::ShardResult& reference, const chip::ChipResult& run)
{
    api::ShardResult res;
    res.index = reference.index;
    res.key = reference.key;
    res.cores = reference.cores;
    res.traceName = reference.traceName;
    res.traceHash = reference.traceHash;
    res.ok = !run.timedOut;
    res.cycles = run.chipCycles;
    res.instrs = run.instrs;
    res.ipc = run.ipc;
    res.powerW = run.powerW;
    res.ipcPerW = run.powerW > 0.0 ? res.ipc / run.powerW : 0.0;
    if (res.cores >= 2) {
        res.chipFreqGhz = run.freqGhz;
        res.chipBoost = run.boost;
        res.throttledEpochs = run.throttledEpochs;
        res.droopTrips = run.droopTrips;
        for (const chip::ChipCoreOutcome& co : run.cores) {
            api::ShardCoreRow row;
            row.cycles = co.run.cycles;
            row.stallCycles = co.stallCycles;
            row.effCycles = co.effCycles;
            row.instrs = co.run.instrs;
            row.ipc = co.ipc;
            row.powerW = co.powerW;
            row.freqGhz = co.freqGhz;
            res.coreRows.push_back(row);
        }
    }
    return res;
}

/**
 * Rebuild one shard from the public calls of each layer, a span around
 * each: the cache lookup when the pass caches, then makeSource per
 * (core, SMT thread), the ChipModel constructor, beginRun + advance,
 * measure, and the cache insert. The calls are SweepRunner::runShard's
 * (src/sweep/runner.cpp), in its order; @p reference is the untraced
 * pass's result for the shard.
 */
void
rebuildShard(const sweep::SweepSpec& spec, const sweep::ShardSpec& shard,
             const api::ShardResult& reference,
             const sweep::ShardCache* cache, SpanLog& log, ShardTrace& st,
             api::ShardResult& out)
{
    const int64_t id = static_cast<int64_t>(shard.index);
    const Clock::time_point begin = Clock::now();
    const int cores = std::max(shard.cores, 1);
    st.cores = cores;
    uint64_t key = 0;
    if (cache != nullptr) {
        key = timeSpan(log, "ShardCache::shardKey", id, st.cacheUs, [&] {
            return sweep::ShardCache::shardKey(spec, shard);
        });
        std::optional<std::vector<uint8_t>> bytes =
            timeSpan(log, "ShardCache::readBytes", id, st.cacheUs,
                     [&] { return cache->readBytes(key); });
        if (bytes) {
            std::optional<api::ShardResult> hit =
                timeSpan(log, "ShardCache::decodeEntry", id, st.cacheUs,
                         [&] {
                             return sweep::ShardCache::decodeEntry(
                                 *bytes, spec, shard);
                         });
            if (hit) {
                out = std::move(*hit);
                out.fromCache = true;
                log.close("shard", id, begin, st.busyUs);
                return;
            }
        }
    }

    st.simulated = true;
    std::vector<std::unique_ptr<workloads::CheckpointableSource>> sources;
    std::vector<std::vector<workloads::InstrSource*>> perCore(
        static_cast<size_t>(cores));
    for (int c = 0; c < cores; ++c)
        for (int t = 0; t < shard.smt; ++t) {
            Expected<std::unique_ptr<workloads::CheckpointableSource>>
                src = timeSpan(
                    log, "workloads::makeSource", id, st.makeSourceUs,
                    [&] {
                        return workloads::makeSource(shard.profile,
                                                     c * shard.smt + t);
                    });
            ++st.sources;
            if (!src) {
                out.index = shard.index;
                out.key = shard.key();
                out.error = src.error();
                log.close("shard", id, begin, st.busyUs);
                return;
            }
            sources.push_back(std::move(src.value()));
            perCore[static_cast<size_t>(c)].push_back(
                sources.back().get());
        }

    chip::ChipConfig cfg;
    cfg.cores.assign(static_cast<size_t>(cores), shard.config);
    cfg.seed = spec.seed;
    std::unique_ptr<chip::ChipModel> model =
        timeSpan(log, "chip::ChipModel", id, st.constructUs, [&] {
            return std::make_unique<chip::ChipModel>(std::move(cfg));
        });
    const uint64_t warmupPerCore =
        spec.warmup * static_cast<uint64_t>(shard.smt);
    timeSpan(log, "ChipModel::beginRun+advance", id, st.advanceUs, [&] {
        model->beginRun(perCore);
        model->advance(warmupPerCore);
    });
    chip::ChipRunOptions opts;
    opts.measureInstrs = spec.instrs;
    opts.maxCycles = spec.maxCycles;
    const chip::ChipResult run =
        timeSpan(log, "ChipModel::measure", id, st.measureUs,
                 [&] { return model->measure(opts); });
    st.warmupInstrs = warmupPerCore * static_cast<uint64_t>(cores);
    st.measureInstrs = run.instrs;
    st.epochs = run.epochs;
    // Inferred, not counted: src/chip/chip.cpp evaluates power once on a
    // 1-core chip, and on an N-core chip once per core per epoch plus
    // once per core for the window. An upper bound: a core with no
    // instructions left in an epoch skips that epoch's call.
    st.powerCalls = cores == 1 ? 1
                               : static_cast<uint64_t>(cores) *
                                     (run.epochs + 1);
    st.firstCore = run.cores[0].run;
    out = assemble(reference, run);

    if (cache != nullptr) {
        const std::vector<uint8_t> entry =
            timeSpan(log, "ShardCache::encodeEntry", id, st.cacheUs,
                     [&] { return entryOf(spec, shard, out); });
        timeSpan(log, "ShardCache::writeBytes", id, st.cacheUs,
                 [&] { (void)cache->writeBytes(key, entry); });
    }
    log.close("shard", id, begin, st.busyUs);
}

struct TracedPass
{
    double wallUs = 0.0;
    double expandUs = 0.0;
    double prepareUs = 0.0;
    double mergeUs = 0.0;
    double jsonUs = 0.0;
    std::vector<ShardTrace> shards;
    std::vector<api::ShardResult> results;
    std::string digest;
    std::vector<Span> spans;
    bool threadFailed = false;
};

/**
 * One traced pass: expand, every shard rebuilt on a kJobs-thread pool,
 * then the merged report over the rebuilt shards and its JSON. The fold's
 * aggregates are the reference pass's; the rebuilt shards replace its
 * shards, so the digest matches only if every shard does.
 */
Expected<TracedPass>
runTracedPass(const Workload& w, const sweep::SweepResult& reference,
              const std::string& cacheDir, Clock::time_point epoch)
{
    TracedPass tp;
    SpanLog main{epoch, 0, {}};
    const Clock::time_point begin = Clock::now();
    Expected<std::vector<sweep::ShardSpec>> expanded =
        timeSpan(main, "SweepSpec::expand", -1, tp.expandUs,
                 [&] { return w.spec.expand(); });
    if (!expanded)
        return expanded.error();
    const std::vector<sweep::ShardSpec>& shards = expanded.value();
    std::optional<sweep::ShardCache> cache;
    if (!cacheDir.empty()) {
        cache.emplace(cacheDir);
        if (Status st = timeSpan(main, "ShardCache::prepare", -1,
                                 tp.prepareUs,
                                 [&] { return cache->prepare(); });
            !st)
            return st.error();
    }

    tp.shards.resize(shards.size());
    tp.results.resize(shards.size());
    std::vector<SpanLog> logs(shards.size(), SpanLog{epoch, 0, {}});
    std::mutex tidMu;
    std::map<std::thread::id, int> tids; ///< pool thread -> trace tid
    try {
        // The sweep's own pool, so shards are scheduled as in a pass.
        sweep::ThreadPool pool(kJobs);
        pool.parallelFor(shards.size(), [&](uint64_t i) {
            {
                std::lock_guard<std::mutex> lk(tidMu);
                const int next = 1 + static_cast<int>(tids.size());
                logs[i].tid =
                    tids.emplace(std::this_thread::get_id(), next)
                        .first->second;
            }
            rebuildShard(w.spec, shards[i], reference.shards[i],
                         cache ? &*cache : nullptr, logs[i], tp.shards[i],
                         tp.results[i]);
        });
    } catch (...) {
        tp.threadFailed = true;
    }

    sweep::SweepResult rebuilt = reference;
    rebuilt.shards = tp.results;
    obs::JsonReport report =
        timeSpan(main, "Service::mergedReport", -1, tp.mergeUs, [&] {
            return api::Service::mergedReport(w.spec, rebuilt);
        });
    tp.digest =
        digestOf(timeSpan(main, "JsonReport::toJson", -1, tp.jsonUs,
                          [&] { return reportJson(std::move(report)); }));
    tp.wallUs = usBetween(begin, Clock::now());

    tp.spans = std::move(main.spans);
    for (SpanLog& l : logs)
        tp.spans.insert(tp.spans.end(), l.spans.begin(), l.spans.end());
    return tp;
}

// ---------------------------------------------------------------------
// Probes: layer costs measured in isolation, at the pass's sizes

/** ns per instruction pulled from a fresh source of @p profile. */
double
probeSourceNs(const workloads::WorkloadProfile& profile)
{
    Expected<std::unique_ptr<workloads::CheckpointableSource>> src =
        workloads::makeSource(profile, 0);
    if (!src)
        return 0.0;
    workloads::CheckpointableSource& s = *src.value();
    uint64_t sink = 0;
    const Clock::time_point begin = Clock::now();
    for (uint64_t i = 0; i < kSourceProbeInstrs; ++i)
        sink += s.next().pc;
    const double us = usBetween(begin, Clock::now());
    // Keeps the pulls from being optimised away.
    if (sink == 1)
        std::fprintf(stderr, " ");
    return us * 1000.0 / static_cast<double>(kSourceProbeInstrs);
}

/** Median us of one evalCounters call over @p run. */
double
probePowerUs(const power::EnergyModel& energy, const core::RunResult& run)
{
    std::vector<double> us;
    double sink = 0.0;
    for (int i = 0; i < kPowerProbeRepeats; ++i) {
        const Clock::time_point begin = Clock::now();
        sink += energy.evalCounters(run).totalPj;
        us.push_back(usBetween(begin, Clock::now()));
    }
    if (sink < 0.0)
        std::fprintf(stderr, " ");
    return summarize(us).median;
}

/** Per-shard us of each cache operation, over every reference shard:
    key, encode, write, read and decode, into a scratch directory. */
struct CacheProbe
{
    std::vector<double> keyUs, encodeUs, writeUs, readUs, decodeUs;
    uint64_t mismatches = 0;
};

CacheProbe
probeCache(const sweep::SweepSpec& spec,
           const std::vector<sweep::ShardSpec>& shards,
           const sweep::SweepResult& reference, const std::string& dir)
{
    CacheProbe p;
    sweep::ShardCache cache(dir);
    if (!cache.prepare()) {
        p.mismatches = shards.size();
        return p;
    }
    SpanLog log{Clock::now(), 0, {}};
    for (size_t i = 0; i < shards.size(); ++i) {
        double us = 0.0;
        const uint64_t key = timeSpan(log, "key", -1, us, [&] {
            return sweep::ShardCache::shardKey(spec, shards[i]);
        });
        p.keyUs.push_back(us);
        us = 0.0;
        const std::vector<uint8_t> entry =
            timeSpan(log, "encode", -1, us, [&] {
                return entryOf(spec, shards[i], reference.shards[i]);
            });
        p.encodeUs.push_back(us);
        us = 0.0;
        timeSpan(log, "write", -1, us,
                 [&] { (void)cache.writeBytes(key, entry); });
        p.writeUs.push_back(us);
        us = 0.0;
        std::optional<std::vector<uint8_t>> bytes = timeSpan(
            log, "read", -1, us, [&] { return cache.readBytes(key); });
        p.readUs.push_back(us);
        us = 0.0;
        std::optional<api::ShardResult> back;
        if (bytes)
            back = timeSpan(log, "decode", -1, us, [&] {
                return sweep::ShardCache::decodeEntry(*bytes, spec,
                                                      shards[i]);
            });
        p.decodeUs.push_back(us);
        if (!back || entryOf(spec, shards[i], *back) != entry)
            ++p.mismatches;
    }
    return p;
}

/** us per evalCounters call for every simulated shard of @p tp. */
std::vector<double>
probePower(const std::vector<sweep::ShardSpec>& shards, const TracedPass& tp)
{
    std::map<std::string, power::EnergyModel> energy;
    std::vector<double> us(shards.size(), 0.0);
    for (size_t i = 0; i < shards.size(); ++i) {
        if (!tp.shards[i].simulated)
            continue;
        auto it = energy.find(shards[i].configName);
        if (it == energy.end())
            it = energy
                     .emplace(shards[i].configName,
                              power::EnergyModel(shards[i].config))
                     .first;
        us[i] = probePowerUs(it->second, tp.shards[i].firstCore);
    }
    return us;
}

// ---------------------------------------------------------------------
// Layer accounting of one traced pass

/** Self time per layer (us) and the per-layer metrics of one pass. */
struct LayerAccount
{
    std::vector<std::pair<std::string, double>> selfUs;
    std::map<std::string, double> metrics;
    std::vector<double> shardMs;
    double wallUs = 0.0;
    double sumUs = 0.0; ///< every self time, pool idle included
    bool negative = false; ///< a probe estimate exceeded its span
};

LayerAccount
account(const TracedPass& tp, const std::vector<sweep::ShardSpec>& shards,
        const std::map<std::string, double>& sourceNs,
        const std::vector<double>& powerUs)
{
    LayerAccount a;
    a.wallUs = tp.wallUs;
    double busy = 0.0, makeSrc = 0.0, construct = 0.0, cacheUs = 0.0;
    double advance = 0.0, measure = 0.0, srcWarm = 0.0, srcMeasure = 0.0;
    double power = 0.0;
    uint64_t sources = 0, simulated = 0, warmInstrs = 0, measInstrs = 0;
    uint64_t calls = 0;
    // Chip layer: measure cost on multi-core shards, and the cost per
    // instruction of the bare-core (c1) shards against the widest chip
    // replaying the same streams.
    int widest = 1;
    for (const ShardTrace& st : tp.shards)
        widest = std::max(widest, st.simulated ? st.cores : 1);
    double c1Us = 0.0, c1Instrs = 0.0, cnUs = 0.0, cnInstrs = 0.0;
    double chipUs = 0.0, chipInstrs = 0.0;
    uint64_t epochs = 0;
    for (size_t i = 0; i < tp.shards.size(); ++i) {
        const ShardTrace& st = tp.shards[i];
        busy += st.busyUs;
        cacheUs += st.cacheUs;
        a.shardMs.push_back(st.busyUs / 1000.0);
        if (!st.simulated)
            continue;
        const double simUs = st.advanceUs + st.measureUs;
        const double simInstrs =
            static_cast<double>(st.warmupInstrs + st.measureInstrs);
        if (st.cores == 1) {
            c1Us += simUs;
            c1Instrs += simInstrs;
        } else {
            chipUs += st.measureUs;
            chipInstrs += static_cast<double>(st.measureInstrs);
            epochs += st.epochs;
        }
        if (st.cores == widest) {
            cnUs += simUs;
            cnInstrs += simInstrs;
        }
        const double ns = sourceNs.at(shards[i].profile.name);
        ++simulated;
        sources += st.sources;
        makeSrc += st.makeSourceUs;
        construct += st.constructUs;
        advance += st.advanceUs;
        measure += st.measureUs;
        srcWarm += static_cast<double>(st.warmupInstrs) * ns / 1000.0;
        srcMeasure += static_cast<double>(st.measureInstrs) * ns / 1000.0;
        power += static_cast<double>(st.powerCalls) * powerUs[i];
        warmInstrs += st.warmupInstrs;
        measInstrs += st.measureInstrs;
        calls += st.powerCalls;
    }
    const double capacity = kJobs * tp.wallUs;
    const double serial =
        tp.expandUs + tp.prepareUs + tp.mergeUs + tp.jsonUs;
    const double coreWarm = advance - srcWarm;
    const double coreMeasure = measure - srcMeasure - power;
    a.negative = coreWarm < 0.0 || coreMeasure < 0.0;
    const double idle = capacity - busy - serial;
    a.selfUs = {
        {"sweep.expand", tp.expandUs},
        {"sweep.cache", tp.prepareUs + cacheUs},
        {"workloads.make_source", makeSrc},
        {"workloads.source", srcWarm + srcMeasure},
        {"core.construct", construct},
        {"core.warmup", coreWarm},
        {"core.measure", coreMeasure},
        {"power.eval", power},
        {"api.merge", tp.mergeUs},
        {"obs.report_json", tp.jsonUs},
        {"sweep.pool_idle", idle},
    };
    for (const auto& [name, us] : a.selfUs)
        a.sumUs += us;

    auto& m = a.metrics;
    m["sweep.expand_ms"] = tp.expandUs / 1000.0;
    m["api.merge_ms"] = tp.mergeUs / 1000.0;
    m["obs.report_json_ms"] = tp.jsonUs / 1000.0;
    m["sweep.pool_idle_frac"] = idle / capacity;
    if (simulated > 0) {
        const double pulls = static_cast<double>(warmInstrs + measInstrs);
        m["workloads.make_source_us"] =
            makeSrc / static_cast<double>(sources);
        m["workloads.source_ns_per_instr"] =
            (srcWarm + srcMeasure) * 1000.0 / pulls;
        m["core.construct_us"] = construct / static_cast<double>(simulated);
        m["core.warmup_ns_per_instr"] =
            coreWarm * 1000.0 / static_cast<double>(warmInstrs);
        m["core.measure_ns_per_instr"] =
            coreMeasure * 1000.0 / static_cast<double>(measInstrs);
        m["power.eval_us"] = power / static_cast<double>(calls);
        m["power.calls"] = static_cast<double>(calls);
    }
    if (chipInstrs > 0.0) {
        m["chip.measure_ns_per_instr"] = chipUs * 1000.0 / chipInstrs;
        m["chip.epochs"] = static_cast<double>(epochs);
        if (c1Instrs > 0.0)
            m["chip.overhead_frac"] =
                1.0 - (c1Us / c1Instrs) / (cnUs / cnInstrs);
    }
    return a;
}

// ---------------------------------------------------------------------
// The run

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work;
    std::string out;
};

/** Everything one run measured and checked. */
struct Run
{
    std::vector<Metric> endToEnd;
    std::vector<Metric> layers;
    std::vector<Metric> extra;
    std::vector<std::pair<std::string, double>> layerTable; ///< ms
    std::vector<Check> checks;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string digest;
    std::vector<Span> spans;

    void
    check(const std::string& name, bool ok, const std::string& detail = "")
    {
        checks.push_back({name, ok, detail});
    }

    bool
    correct() const
    {
        if (failed != 0)
            return false;
        for (const Check& c : checks)
            if (!c.ok)
                return false;
        return true;
    }
};

double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(
               std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

/** Timed-pass bookkeeping shared by the untraced and traced loops. */
struct PassLog
{
    std::vector<double> wallS, mips, shardsPerS;
    uint64_t digestMismatches = 0;
    uint64_t cached = 0, shards = 0;
    uint64_t dispatched = 0, reassigned = 0;
};

void
recordPass(Run& run, PassLog& pl, const PassOutcome& p,
           const std::string& refDigest)
{
    const uint64_t n = p.result.shards.size();
    run.attempted += n;
    run.failed += n - p.result.okCount;
    if (p.digest != refDigest) {
        ++pl.digestMismatches;
        run.failed += p.result.okCount;
    }
    pl.wallS.push_back(p.wallS);
    pl.mips.push_back(static_cast<double>(p.result.simInstrs) / p.wallS /
                      1e6);
    pl.shardsPerS.push_back(static_cast<double>(p.result.okCount) /
                            p.wallS);
    pl.cached += p.result.cachedShards;
    pl.shards += n;
    pl.dispatched += p.fleetStats.dispatched;
    pl.reassigned += p.fleetStats.reassigned;
}

/** Rebuilt shards and reports that differ from the reference. */
struct RebuildTally
{
    uint64_t passes = 0;
    uint64_t shardMismatches = 0;
    uint64_t digestMismatches = 0;
    bool threadFailed = false;
};

/** Compare every rebuilt shard with the reference pass's result. */
void
tallyRebuild(Run& run, RebuildTally& t, const Workload& w,
             const TracedPass& tp,
             const std::vector<sweep::ShardSpec>& shards,
             const sweep::SweepResult& reference,
             const std::string& refDigest)
{
    uint64_t mismatched = 0;
    for (size_t i = 0; i < shards.size(); ++i)
        if (!tp.results[i].ok ||
            entryOf(w.spec, shards[i], tp.results[i]) !=
                entryOf(w.spec, shards[i], reference.shards[i]))
            ++mismatched;
    run.attempted += shards.size();
    run.failed += mismatched;
    ++t.passes;
    t.shardMismatches += mismatched;
    t.digestMismatches += tp.digest != refDigest ? 1 : 0;
    t.threadFailed = t.threadFailed || tp.threadFailed;
}

/** What a traced run keeps of its traced passes. */
struct TraceState
{
    /** Source probe per profile name, taken before the passes. */
    std::map<std::string, double> sourceNs;
    /** Power probe per shard, taken on the first pass that simulates. */
    std::vector<double> powerUs;
    RebuildTally tally;
    /** The workload's own traced passes, and the extra rebuild. */
    std::vector<LayerAccount> own, extra;
};

/** Check, account and keep one traced pass (its spans only when it
    is the first of its kind). */
void
addTracedPass(Run& run, TraceState& ts, const Workload& w,
              const std::vector<sweep::ShardSpec>& shards,
              const sweep::SweepResult& reference,
              const std::string& refDigest, TracedPass tp, bool own)
{
    tallyRebuild(run, ts.tally, w, tp, shards, reference, refDigest);
    const bool simulated =
        std::any_of(tp.shards.begin(), tp.shards.end(),
                    [](const ShardTrace& st) { return st.simulated; });
    if (ts.powerUs.empty() && simulated)
        ts.powerUs = probePower(shards, tp);
    std::vector<LayerAccount>& kept = own ? ts.own : ts.extra;
    if (kept.empty())
        run.spans.insert(run.spans.end(), tp.spans.begin(), tp.spans.end());
    kept.push_back(account(tp, shards, ts.sourceNs, ts.powerUs));
}

/**
 * Delete the work directory and wait for the filesystem to commit the
 * deletion. Where the filesystem discards freed blocks online, it does
 * so at the next journal commit and can stall file creation meanwhile,
 * so files are deleted only here, before set-up and after the last
 * pass, and every cache directory within a run is a new one.
 */
void
clearWorkDir(const std::string& dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    const std::string parent =
        std::filesystem::path(dir).parent_path().string();
    const int fd =
        ::open(parent.empty() ? "." : parent.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        (void)::syncfs(fd);
        ::close(fd);
    }
}

int
execute(const Options& opt, Run& run)
{
    const Clock::time_point epoch = Clock::now();
    registerSeededFrontend();
    Workload w = makeWorkload(opt.workload, opt.seed);
    clearWorkDir(opt.work);
    std::error_code ec;
    std::filesystem::create_directories(opt.work, ec);
    if (ec) {
        std::fprintf(stderr, "p10perf: cannot create %s: %s\n",
                     opt.work.c_str(), ec.message().c_str());
        return 2;
    }
    // A new directory under the work directory, which starts empty.
    auto workDir = [&](const std::string& name) {
        return opt.work + "/" + name;
    };
    if (w.name == "chip_trace")
        if (Status st = recordTraces(w, opt.seed, opt.work); !st) {
            std::fprintf(stderr, "p10perf: recording traces: %s\n",
                         st.error().str().c_str());
            return 2;
        }

    // ---- Set-up. The first one's products serve the passes.
    SpanLog setupLog{epoch, 0, {}};
    Workers workers;
    std::vector<double> setupS, spawnMs;
    SetupProducts setup;
    // One timed set-up. Each starts from nothing: the sources the
    // passes hold (they keep trace containers loaded) are dropped and
    // replaced by the new set-up's, and a repeat's workers are reaped.
    auto timedSetUp = [&](bool first) {
        setup.sources.clear();
        Workers spare;
        const std::string dir =
            w.cache == CacheUse::None
                ? ""
                : workDir("setup" + std::to_string(setupS.size()));
        const Clock::time_point begin = Clock::now();
        Expected<SetupProducts> s =
            setUp(w, dir, first ? workers : spare, setupLog, spawnMs);
        setupS.push_back(usBetween(begin, Clock::now()) / 1e6);
        if (!s) {
            std::fprintf(stderr, "p10perf: set-up failed: %s\n",
                         s.error().str().c_str());
            return false;
        }
        if (first)
            setup = std::move(s.value());
        else
            setup.sources = std::move(s.value().sources);
        return true;
    };
    if (!timedSetUp(true))
        return 2;
    const size_t setups = std::clamp(
        static_cast<size_t>(kSetupBudgetShare * opt.seconds / setupS[0]),
        kSetupMinRepeats, kSetupRepeats);
    auto setUpAgain = [&](double elapsedS) {
        const size_t done = setupS.size();
        return done < setups &&
               elapsedS >= opt.seconds * static_cast<double>(done) /
                               static_cast<double>(setups);
    };
    const std::vector<sweep::ShardSpec>& shards = setup.shards;

    // ---- Warm-up pass: the reference results and digest.
    const std::string warmDir = w.cache == CacheUse::Warm
                                    ? workDir("warm")
                                    : "";
    Expected<PassOutcome> warm =
        runPass(w, w.cache == CacheUse::Cold
                       ? workDir("warmup")
                       : warmDir,
                workers, /*viaFleet=*/false);
    if (!warm) {
        std::fprintf(stderr, "p10perf: warm-up pass failed: %s\n",
                     warm.error().str().c_str());
        return 2;
    }
    const sweep::SweepResult& reference = warm.value().result;
    const std::string refDigest = warm.value().digest;
    run.digest = refDigest;
    run.attempted += shards.size();
    run.failed += shards.size() - reference.okCount;
    if (w.fleet) {
        // The in-process pass above is the reference; the fleet's own
        // warm-up pass must reproduce it byte for byte.
        Expected<PassOutcome> fleetWarm = runPass(w, "", workers, true);
        const bool ok = fleetWarm && fleetWarm.value().digest == refDigest;
        run.attempted += shards.size();
        if (!ok)
            run.failed += shards.size();
        run.check("fleet report digest equals the in-process digest", ok,
                  fleetWarm ? fleetWarm.value().digest + " vs " + refDigest
                            : fleetWarm.error().str());
    }

    // ---- Timed passes; with --trace 1 a traced pass follows each.
    auto passCacheDir = [&](uint64_t k) {
        if (w.cache == CacheUse::Cold)
            return workDir("pass" + std::to_string(k));
        return warmDir;
    };
    TraceState ts;
    if (opt.trace)
        for (const sweep::ShardSpec& s : shards)
            if (!ts.sourceNs.count(s.profile.name))
                ts.sourceNs[s.profile.name] = probeSourceNs(s.profile);
    PassLog pl, tracedFleet;
    const Clock::time_point measureStart = Clock::now();
    for (uint64_t k = 0;; ++k) {
        Expected<PassOutcome> p =
            runPass(w, passCacheDir(k), workers, w.fleet);
        if (!p) {
            std::fprintf(stderr, "p10perf: pass failed: %s\n",
                         p.error().str().c_str());
            return 2;
        }
        recordPass(run, pl, p.value(), refDigest);
        if (opt.trace) {
            if (w.fleet) {
                // The fleet's traced pass: a span around the pass
                // (FleetRunner::run, merge, JSON) and an instant per
                // progress event.
                SpanLog log{epoch, 0, {}};
                std::mutex mu;
                api::ProgressFn onProgress =
                    [&](const api::ProgressEvent& ev) {
                        std::lock_guard<std::mutex> lk(mu);
                        log.instant("progress",
                                    static_cast<int64_t>(ev.index));
                    };
                const Clock::time_point begin = Clock::now();
                Expected<PassOutcome> tpass =
                    runPass(w, "", workers, true, onProgress);
                double us = 0.0;
                log.close("fleet pass", -1, begin, us);
                if (!tpass) {
                    std::fprintf(stderr, "p10perf: pass failed: %s\n",
                                 tpass.error().str().c_str());
                    return 2;
                }
                if (tracedFleet.wallS.empty())
                    run.spans.insert(run.spans.end(), log.spans.begin(),
                                     log.spans.end());
                recordPass(run, tracedFleet, tpass.value(), refDigest);
            } else {
                Expected<TracedPass> tp = runTracedPass(
                    w, reference,
                    w.cache == CacheUse::Cold
                        ? workDir("traced" + std::to_string(k))
                        : warmDir,
                    epoch);
                if (!tp) {
                    std::fprintf(stderr, "p10perf: traced pass: %s\n",
                                 tp.error().str().c_str());
                    return 2;
                }
                addTracedPass(run, ts, w, shards, reference, refDigest,
                              std::move(tp.value()), /*own=*/true);
            }
        }
        // Every set-up is due before the window ends, so the last pass
        // leaves none undone.
        const double elapsedS = usBetween(measureStart, Clock::now()) / 1e6;
        while (setUpAgain(elapsedS))
            if (!timedSetUp(false))
                return 2;
        if (elapsedS >= opt.seconds)
            break;
    }
    run.spans.insert(run.spans.begin(), setupLog.spans.begin(),
                     setupLog.spans.end());
    run.check("timed pass digests equal the warm-up digest",
              pl.digestMismatches == 0 &&
                  tracedFleet.digestMismatches == 0,
              std::to_string(pl.digestMismatches +
                             tracedFleet.digestMismatches) +
                  " passes differ");

    if (w.cache != CacheUse::None) {
        // Cold and warm passes use the cache in opposite directions;
        // both must produce the same report.
        const std::string dir = w.cache == CacheUse::Cold
                                    ? workDir("pass0")
                                    : warmDir;
        Expected<PassOutcome> again = runPass(w, dir, workers, false);
        const bool ok = again &&
                        again.value().result.cachedShards ==
                            shards.size() &&
                        again.value().digest == refDigest;
        run.attempted += shards.size();
        if (!ok)
            run.failed += shards.size();
        run.check("warm (all-hit) digest equals the cold digest", ok,
                  again ? again.value().digest + " vs " + refDigest
                        : again.error().str());
    }

    if (!opt.trace) {
        workers.reap();
        run.endToEnd = {
            {"setup_s", "s", summarize(setupS)},
            {"host_mips", "Minstr/s", summarize(pl.mips)},
            {"shards_per_s", "1/s", summarize(pl.shardsPerS)},
            {"peak_rss_mb", "MB", summarize({peakRssMb()})},
        };
        return 0;
    }

    // ---- Traced-run extras: fleet and storm_warm rebuild the shards
    // in-process, cold, for the layers their own passes do not reach.
    if (w.fleet || w.cache == CacheUse::Warm) {
        Expected<TracedPass> tp = runTracedPass(
            w, reference,
            w.cache == CacheUse::Warm ? workDir("cold") : "",
            epoch);
        if (!tp) {
            std::fprintf(stderr, "p10perf: traced rebuild: %s\n",
                         tp.error().str().c_str());
            return 2;
        }
        addTracedPass(run, ts, w, shards, reference, refDigest,
                      std::move(tp.value()), /*own=*/false);
    }
    // The layer sum of every traced pass against jobs x the wall time
    // of the same work run untraced: for the workload's own traced
    // passes the timed pass just before each (the pair sees the same
    // host speed), for the extra rebuild the in-process warm-up pass.
    // The reference carries no spans and comes from the program's own
    // sweep path, so the sum misses it when the rebuild leaves out or
    // adds work, or the spans slow it. It cannot see how a probe splits
    // time between its layer and the core (that moves time between
    // layers); the non-negative check bounds the probes.
    for (size_t k = 0; k < ts.own.size(); ++k)
        ts.own[k].metrics["bench.layer_sum_frac"] =
            ts.own[k].sumUs / (kJobs * pl.wallS[k] * 1e6);
    for (LayerAccount& a : ts.extra)
        a.metrics["bench.layer_sum_frac"] =
            a.sumUs / (kJobs * warm.value().wallS * 1e6);
    const RebuildTally& tally = ts.tally;
    run.check("rebuilt shards equal the warm-up pass's results",
              tally.shardMismatches == 0 && !tally.threadFailed,
              std::to_string(tally.shardMismatches) +
                  " shards differ over " + std::to_string(tally.passes) +
                  " traced passes");
    run.check("rebuilt report digests equal the warm-up digest",
              tally.digestMismatches == 0,
              std::to_string(tally.digestMismatches) + " of " +
                  std::to_string(tally.passes) + " traced passes differ");

    const CacheProbe cp =
        probeCache(w.spec, shards, reference,
                   workDir("probe-cache"));
    run.check("cache probe: decoded entries equal the encoded results",
              cp.mismatches == 0,
              std::to_string(cp.mismatches) + " mismatches");
    run.failed += cp.mismatches;

    // Per-layer metrics: the median over the workload's own traced
    // passes where they carry the metric, else over the extra rebuild.
    const std::vector<LayerAccount>& primary =
        ts.own.empty() ? ts.extra : ts.own;
    auto layerMetric = [&](std::vector<Metric>& to, const std::string& name,
                           const std::string& unit) {
        std::vector<double> v;
        for (const std::vector<LayerAccount>* set : {&ts.own, &ts.extra}) {
            for (const LayerAccount& a : *set)
                if (auto it = a.metrics.find(name); it != a.metrics.end())
                    v.push_back(it->second);
            if (!v.empty())
                break;
        }
        to.push_back({name, unit, summarize(v)});
    };
    std::vector<double> shardMs;
    for (const LayerAccount& a : primary)
        shardMs.insert(shardMs.end(), a.shardMs.begin(), a.shardMs.end());

    layerMetric(run.layers, "workloads.make_source_us", "us");
    layerMetric(run.layers, "workloads.source_ns_per_instr", "ns");
    layerMetric(run.layers, "core.construct_us", "us");
    layerMetric(run.layers, "core.warmup_ns_per_instr", "ns");
    layerMetric(run.layers, "core.measure_ns_per_instr", "ns");
    layerMetric(run.layers, "power.eval_us", "us");
    layerMetric(run.layers, "power.calls", "count");
    layerMetric(run.layers, "sweep.expand_ms", "ms");
    run.layers.push_back({"sweep.cache_key_us", "us", summarize(cp.keyUs)});
    run.layers.push_back(
        {"sweep.cache_encode_us", "us", summarize(cp.encodeUs)});
    run.layers.push_back(
        {"sweep.cache_write_us", "us", summarize(cp.writeUs)});
    run.layers.push_back(
        {"sweep.cache_read_us", "us", summarize(cp.readUs)});
    run.layers.push_back(
        {"sweep.cache_decode_us", "us", summarize(cp.decodeUs)});
    layerMetric(run.layers, "sweep.pool_idle_frac", "ratio");
    const Summary p50 = summarize(shardMs);
    run.layers.push_back({"api.shard_ms_p50", "ms", p50});
    Summary p95 = p50;
    p95.median = p95.q1 = p95.q3 = percentile(shardMs, 95.0);
    run.layers.push_back({"api.shard_ms_p95", "ms", p95});
    layerMetric(run.layers, "api.merge_ms", "ms");
    layerMetric(run.layers, "obs.report_json_ms", "ms");

    // Tracing overhead: each traced pass against the timed pass just
    // before it.
    std::vector<double> overhead;
    for (size_t k = 0; k < tracedFleet.wallS.size(); ++k)
        overhead.push_back(tracedFleet.wallS[k] / pl.wallS[k] - 1.0);
    for (size_t k = 0; k < ts.own.size(); ++k)
        overhead.push_back(ts.own[k].wallUs / 1e6 / pl.wallS[k] - 1.0);
    run.layers.push_back(
        {"bench.trace_overhead_frac", "ratio", summarize(overhead)});
    layerMetric(run.layers, "bench.layer_sum_frac", "ratio");

    // The layer table (median self ms per layer) and its checks.
    bool negative = false;
    std::vector<double> sums;
    for (const LayerAccount& a : primary) {
        negative = negative || a.negative;
        sums.push_back(a.metrics.at("bench.layer_sum_frac"));
    }
    for (size_t l = 0; l < primary.front().selfUs.size(); ++l) {
        std::vector<double> v;
        for (const LayerAccount& a : primary)
            v.push_back(a.selfUs[l].second / 1000.0);
        run.layerTable.push_back(
            {primary.front().selfUs[l].first, summarize(v).median});
    }
    // Checked where the workload's own passes run in-process; the
    // fleet's single in-process reference pass is the process's first.
    if (!ts.own.empty()) {
        const double sumFrac = summarize(sums).median;
        run.check("layer self-times add up to jobs x untraced pass wall "
                  "within 15%",
                  std::fabs(sumFrac - 1.0) <= kLayerSumTolerance,
                  "sum / (jobs x untraced wall) = " + num(sumFrac));
    }
    run.check("core self-times are non-negative (probes within spans)",
              !negative);

    // Workload-specific layer metrics, in the results file only.
    std::vector<double> sourceNs;
    for (const auto& [name, ns] : ts.sourceNs)
        sourceNs.push_back(ns);
    if (w.name == "chip_trace") {
        std::vector<double> loadMs;
        for (const std::string& name : w.spec.workloads) {
            const std::string path =
                name.substr(std::string(trace::kScheme).size() + 1);
            bool ok = true;
            for (size_t i = 0; i < kSetupMinRepeats; ++i) {
                const Clock::time_point begin = Clock::now();
                Expected<trace::TraceData> d = trace::TraceData::load(path);
                ok = ok && d && d.value().verifyContent().ok();
                loadMs.push_back(usBetween(begin, Clock::now()) / 1000.0);
            }
            run.check("trace " + path + " loads and verifies", ok);
        }
        run.extra.push_back({"trace.load_ms", "ms", summarize(loadMs)});
        run.extra.push_back(
            {"trace.replay_ns_per_instr", "ns", summarize(sourceNs)});
        layerMetric(run.extra, "chip.measure_ns_per_instr", "ns");
        layerMetric(run.extra, "chip.epochs", "count");
        layerMetric(run.extra, "chip.overhead_frac", "ratio");
    } else {
        run.extra.push_back(
            {"workloads.gen_ns_per_instr", "ns", summarize(sourceNs)});
    }
    if (w.cache != CacheUse::None)
        run.extra.push_back(single(
            "sweep.cache_hit_ratio", "ratio",
            static_cast<double>(pl.cached) / static_cast<double>(pl.shards)));
    if (w.fleet) {
        // In-process runShard over the same shards sizes the dispatch
        // overhead: worker time the fleet spends beyond simulation.
        std::vector<double> callMs(shards.size(), 0.0);
        const api::Service service;
        sweep::ThreadPool(kJobs).parallelFor(shards.size(), [&](uint64_t i) {
            const Clock::time_point begin = Clock::now();
            (void)service.runShard(w.spec, i, {});
            callMs[i] = usBetween(begin, Clock::now()) / 1000.0;
        });
        double inProcMs = 0.0;
        for (double ms : callMs)
            inProcMs += ms;
        const double fleetWallMs = summarize(pl.wallS).median * 1000.0;
        const double n = static_cast<double>(shards.size());
        run.extra.push_back(single("fabric.dispatch_overhead_ms_per_shard",
                                   "ms",
                                   (kJobs * fleetWallMs - inProcMs) / n));
        double reqBytes = 0.0, doneBytes = 0.0;
        for (size_t i = 0; i < shards.size(); ++i) {
            const std::string id = "s" + std::to_string(i) + "a0";
            reqBytes += static_cast<double>(
                fabric::shardRequestLine(id, w.spec, i, 200, false).size() +
                1);
            doneBytes += static_cast<double>(
                service::shardDoneLine(
                    id, i, false,
                    entryOf(w.spec, shards[i], reference.shards[i]))
                    .size() +
                1);
        }
        run.extra.push_back(
            single("fabric.request_bytes", "bytes", reqBytes / n));
        run.extra.push_back(
            single("fabric.entry_bytes", "bytes", doneBytes / n));
        run.extra.push_back({"fabric.spawn_ms", "ms", summarize(spawnMs)});
        run.extra.push_back(single("fabric.dispatched", "count",
                                   static_cast<double>(pl.dispatched)));
        run.extra.push_back(single("fabric.reassigned", "count",
                                   static_cast<double>(pl.reassigned)));
    }
    return 0;
}

// ---------------------------------------------------------------------
// Output

void
printMetric(const Metric& m)
{
    std::printf("%s %s %s\n", m.name.c_str(), num(m.s.median).c_str(),
                m.unit.c_str());
}

std::string
metricsJson(const std::vector<Metric>& ms, bool full)
{
    std::string out = "{";
    for (size_t i = 0; i < ms.size(); ++i) {
        const Metric& m = ms[i];
        out += (i ? ", " : "") + jsonString(m.name) +
               ": {\"value\": " + num(m.s.median) +
               ", \"unit\": " + jsonString(m.unit);
        if (full)
            out += ", \"q1\": " + num(m.s.q1) + ", \"q3\": " + num(m.s.q3) +
                   ", \"n\": " + std::to_string(m.s.n);
        out += "}";
    }
    return out + "}";
}

Status
writeResults(const Options& opt, const Run& run)
{
    std::error_code ec;
    const std::filesystem::path out(opt.out);
    if (out.has_parent_path())
        std::filesystem::create_directories(out.parent_path(), ec);
    const double frac = run.attempted == 0
                            ? 0.0
                            : static_cast<double>(run.failed) /
                                  static_cast<double>(run.attempted);
    std::ostringstream os;
    os << "{\n  \"schema\": \"p10perf-result/1\",\n"
       << "  \"workload\": " << jsonString(opt.workload) << ",\n"
       << "  \"seed\": " << opt.seed << ",\n"
       << "  \"trace\": " << (opt.trace ? 1 : 0) << ",\n"
       << "  \"seconds\": " << num(opt.seconds) << ",\n"
       << "  \"jobs\": " << kJobs << ",\n"
       << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"correct\": " << (run.correct() ? "true" : "false") << ",\n"
       << "  \"attempted\": " << run.attempted << ",\n"
       << "  \"failed\": " << run.failed << ",\n"
       << "  \"failed_frac\": " << num(frac) << ",\n"
       << "  \"report_digest\": " << jsonString(run.digest) << ",\n"
       << "  \"metrics\": "
       << metricsJson(opt.trace ? run.layers : run.endToEnd, true)
       << ",\n  \"extra\": " << metricsJson(run.extra, true)
       << ",\n  \"layers_ms\": {";
    for (size_t i = 0; i < run.layerTable.size(); ++i)
        os << (i ? ", " : "") << jsonString(run.layerTable[i].first) << ": "
           << num(run.layerTable[i].second);
    os << "},\n  \"checks\": [";
    for (size_t i = 0; i < run.checks.size(); ++i)
        os << (i ? ",\n    " : "\n    ") << "{\"name\": "
           << jsonString(run.checks[i].name)
           << ", \"ok\": " << (run.checks[i].ok ? "true" : "false")
           << ", \"detail\": " << jsonString(run.checks[i].detail) << "}";
    os << "\n  ]\n}\n";
    std::ofstream f(opt.out);
    f << os.str();
    if (!f)
        return common::Error::invalidArgument("cannot write " + opt.out);
    if (opt.trace) {
        std::string tracePath = opt.out;
        if (tracePath.size() > 5 &&
            tracePath.compare(tracePath.size() - 5, 5, ".json") == 0)
            tracePath.resize(tracePath.size() - 5);
        std::ofstream t(tracePath + ".trace.json");
        t << chromeTrace(run.spans);
        if (!t)
            return common::Error::invalidArgument("cannot write " +
                                                  tracePath);
    }
    return common::okStatus();
}

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "p10perf: %s\nusage: p10perf --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work DIR --out FILE\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            if (v.empty() || v.find_first_not_of("0123456789") !=
                                 std::string::npos)
                return usage("--seed takes a whole number");
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(opt.seconds > 0.0))
                return usage("--seconds takes a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (a == "--work") {
            opt.work = v;
        } else if (a == "--out") {
            opt.out = v;
        } else {
            return usage(("unknown option " + a).c_str());
        }
    }
    if (std::find(kWorkloadNames.begin(), kWorkloadNames.end(),
                  opt.workload) == kWorkloadNames.end())
        return usage("--workload must be one of core_long, chip_trace, "
                     "storm_cold, storm_warm, fleet");
    if (opt.work.empty() || opt.out.empty())
        return usage("--work and --out are required");

    Run run;
    const int rc = execute(opt, run);
    clearWorkDir(opt.work);
    if (rc != 0)
        return rc;

    const std::vector<Metric>& reported =
        opt.trace ? run.layers : run.endToEnd;
    for (const Metric& m : reported)
        printMetric(m);
    for (const Metric& m : run.extra)
        printMetric(m);
    for (const auto& [layer, ms] : run.layerTable)
        std::printf("layer.%s.self_ms %s ms\n", layer.c_str(),
                    num(ms).c_str());
    for (const Check& c : run.checks)
        if (!c.ok)
            std::printf("# check failed: %s (%s)\n", c.name.c_str(),
                        c.detail.c_str());
    if (Status st = writeResults(opt, run); !st)
        std::fprintf(stderr, "p10perf: %s\n", st.error().str().c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                run.correct() ? "true" : "false",
                static_cast<unsigned long long>(run.attempted),
                static_cast<unsigned long long>(run.failed),
                metricsJson(reported, false).c_str());
    std::fflush(stdout);
    return run.correct() ? 0 : 1;
}
