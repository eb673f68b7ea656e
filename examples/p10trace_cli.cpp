/**
 * @file
 * `p10trace_cli` — the trace ingestion front end: record any
 * registered workload into a `p10trace/1` container, inspect and
 * verify containers, and re-extract hot-loop snippet proxies from
 * them.
 *
 *   p10trace_cli record  --workload xz --instrs 50000 --out xz.p10trace
 *   p10trace_cli info    --in xz.p10trace
 *   p10trace_cli verify  --in xz.p10trace
 *   p10trace_cli extract --in xz.p10trace --out-dir snippets/ \
 *                        [--top 5] [--report extract.json]
 *
 * `record` pulls the workload's instruction stream through a
 * TraceCapture tee — the same stream a simulation would consume — and
 * seals it with the content hash that keys every cache tier. The
 * recorded file is a workload anywhere a name is accepted:
 * `--workload trace:xz.p10trace` in p10sim_cli / p10sweep_cli /
 * SweepSpec JSON, including under p10d and p10fleet.
 *
 * `extract` runs the paper's snippet methodology (§III-A) over an
 * ingested trace: taken-backward-branch loop mining, L1-contained
 * span filter, greedy top-K with overlap suppression. Each accepted
 * snippet is written as its own replayable container and the coverage
 * accounting lands in a deterministic p10ee-report/1 file.
 *
 * Exit codes follow the CLI contract: 0 success, 1 recoverable
 * (corrupt input, output-path failure), 2 usage.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "api/args.h"
#include "common/rng.h"
#include "common/table.h"
#include "obs/report.h"
#include "trace/container.h"
#include "trace/extract.h"
#include "trace/replay.h"
#include "workloads/registry.h"

using namespace p10ee;

namespace {

/** Shared error printer honouring the usage-vs-recoverable split. */
int
fail(const char* sub, const common::Error& e)
{
    std::fprintf(stderr, "p10trace_cli %s: error: %s\n", sub,
                 e.str().c_str());
    const bool usageClass =
        e.code == common::ErrorCode::InvalidConfig ||
        e.code == common::ErrorCode::InvalidArgument ||
        e.code == common::ErrorCode::NotFound;
    return usageClass ? 2 : 1;
}

int
parseOrExit(api::ArgParser& parser, int argc, char** argv)
{
    if (auto st = parser.parse(argc, argv); !st) {
        std::fprintf(stderr, "%s: error: %s\n", parser.tool().c_str(),
                     st.error().message.c_str());
        std::fputs(parser.help().c_str(), stderr);
        return 2;
    }
    if (parser.helpRequested()) {
        std::fputs(parser.help().c_str(), stdout);
        return 0;
    }
    return -1; // continue
}

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

int
cmdRecord(int argc, char** argv)
{
    std::string workload = "perlbench";
    uint64_t instrs = 50000;
    uint64_t seed = 0;
    std::string out;
    std::string name;
    std::string encoding = "delta";

    api::ArgParser parser(
        "p10trace_cli record",
        "Record a workload's instruction stream into a p10trace/1 "
        "container.");
    parser.str("--workload", &workload, "name",
               "workload to record (profile name or trace:<path>; "
               "default perlbench)");
    api::stdflags::instrs(parser, &instrs);
    api::stdflags::seed(parser, &seed);
    api::stdflags::out(parser, &out);
    parser.str("--name", &name, "name",
               "recorded trace name (default: the workload name)");
    parser.str("--encoding", &encoding, "raw|delta",
               "chunk encoding (default delta)");
    if (int rc = parseOrExit(parser, argc, argv); rc >= 0)
        return rc;
    if (out.empty())
        return fail("record", common::Error::invalidArgument(
                                  "--out is required"));
    uint8_t enc;
    if (encoding == "raw")
        enc = trace::kEncodingRaw;
    else if (encoding == "delta")
        enc = trace::kEncodingDelta;
    else
        return fail("record",
                    common::Error::invalidArgument(
                        "--encoding must be raw or delta (got '" +
                        encoding + "')"));

    trace::registerTraceFrontend();
    auto profOr = workloads::resolveWorkload(workload);
    if (!profOr)
        return fail("record", profOr.error());
    workloads::WorkloadProfile profile = std::move(profOr.value());
    if (seed != 0)
        profile.seed = common::splitSeed(profile.seed, seed);
    auto srcOr = workloads::makeSource(profile, 0);
    if (!srcOr)
        return fail("record", srcOr.error());

    trace::TraceMeta meta;
    meta.name = name.empty() ? workload : name;
    meta.source = "record:" + workload + " seed " +
                  std::to_string(profile.seed);
    if (auto st = trace::validateMeta(meta); !st)
        return fail("record", st.error());

    trace::TraceData data =
        trace::recordTrace(*srcOr.value(), instrs, std::move(meta), enc);
    if (auto st = data.save(out); !st)
        return fail("record", st.error());
    std::fprintf(stderr,
                 "recorded %llu instrs of '%s' -> %s (%zu chunks, "
                 "%zu payload bytes, content hash %s)\n",
                 static_cast<unsigned long long>(data.instrCount()),
                 workload.c_str(), out.c_str(), data.chunkCount(),
                 data.payloadBytes(),
                 hex16(data.contentHash()).c_str());
    return 0;
}

int
cmdInfo(int argc, char** argv)
{
    std::string in;
    bool csv = false;
    api::ArgParser parser("p10trace_cli info",
                          "Print a trace container's metadata.");
    parser.str("--in", &in, "path", "trace container to inspect");
    parser.boolean("--csv", &csv, "machine-readable output");
    if (int rc = parseOrExit(parser, argc, argv); rc >= 0)
        return rc;
    if (in.empty())
        return fail("info", common::Error::invalidArgument(
                                "--in is required"));
    auto dataOr = trace::TraceData::load(in);
    if (!dataOr)
        return fail("info", dataOr.error());
    const trace::TraceData& d = dataOr.value();

    common::Table t("p10trace: " + in);
    t.header({"field", "value"});
    t.row({"name", d.meta().name});
    t.row({"dialect", d.meta().dialect});
    t.row({"source", d.meta().source});
    t.row({"format_version", std::to_string(trace::kFormatVersion)});
    t.row({"instrs", std::to_string(d.instrCount())});
    t.row({"chunks", std::to_string(d.chunkCount())});
    t.row({"encoding", d.encoding() == trace::kEncodingRaw ? "raw"
                                                           : "delta"});
    t.row({"payload_bytes", std::to_string(d.payloadBytes())});
    t.row({"content_hash", hex16(d.contentHash())});
    if (csv)
        t.printCsv();
    else
        t.print();
    return 0;
}

int
cmdVerify(int argc, char** argv)
{
    std::string in;
    api::ArgParser parser(
        "p10trace_cli verify",
        "Fully verify a trace container: envelope, checksum, every "
        "record's semantic ranges, and the content hash.");
    parser.str("--in", &in, "path", "trace container to verify");
    if (int rc = parseOrExit(parser, argc, argv); rc >= 0)
        return rc;
    if (in.empty())
        return fail("verify", common::Error::invalidArgument(
                                  "--in is required"));
    auto dataOr = trace::TraceData::load(in);
    if (!dataOr)
        return fail("verify", dataOr.error());
    if (auto st = dataOr.value().verifyContent(); !st) {
        std::fprintf(stderr, "p10trace_cli verify: error: %s: %s\n",
                     in.c_str(), st.error().str().c_str());
        return 1;
    }
    std::printf("%s: ok (%llu instrs, content hash %s)\n", in.c_str(),
                static_cast<unsigned long long>(
                    dataOr.value().instrCount()),
                hex16(dataOr.value().contentHash()).c_str());
    return 0;
}

/** Snippet file name: the proxy name with '/'-unsafe chars flattened. */
std::string
snippetPath(const std::string& dir, const std::string& proxyName)
{
    std::string flat = proxyName;
    for (char& c : flat)
        if (c == '/' || c == ':' || c == '#')
            c = '_';
    return dir + "/" + flat + ".p10trace";
}

int
cmdExtract(int argc, char** argv)
{
    std::string in;
    std::string outDir;
    std::string report;
    uint64_t topK = 5;
    uint64_t maxLoop = 2048;
    uint64_t maxSpan = 32 * 1024;

    api::ArgParser parser(
        "p10trace_cli extract",
        "Mine hot L1-contained loops out of a trace and write each as "
        "its own replayable snippet container.");
    parser.str("--in", &in, "path", "trace container to mine");
    parser.str("--out-dir", &outDir, "dir",
               "directory for the snippet containers");
    parser.str("--report", &report, "path",
               "write coverage accounting as a p10ee-report/1 file");
    parser.u64("--top", &topK, "keep at most this many snippets "
               "(default 5)", 1, 64);
    parser.u64("--max-loop", &maxLoop,
               "longest loop body in dynamic instrs (default 2048)", 1);
    parser.u64("--max-span", &maxSpan,
               "largest static code span in bytes (default 32768)", 1);
    if (int rc = parseOrExit(parser, argc, argv); rc >= 0)
        return rc;
    if (in.empty() || outDir.empty())
        return fail("extract",
                    common::Error::invalidArgument(
                        "--in and --out-dir are required"));

    auto dataOr = trace::TraceData::load(in);
    if (!dataOr)
        return fail("extract", dataOr.error());
    const trace::TraceData& data = dataOr.value();

    trace::ExtractOptions opts;
    opts.topK = static_cast<int>(topK);
    opts.maxLoopInstrs = static_cast<uint32_t>(maxLoop);
    opts.maxCodeSpanBytes = maxSpan;
    auto resultOr = trace::extractProxies(data, opts);
    if (!resultOr)
        return fail("extract", resultOr.error());
    const workloads::ExtractionResult& result = resultOr.value();

    std::error_code ec;
    std::filesystem::create_directories(outDir, ec);
    if (ec)
        return fail("extract",
                    common::Error::invalidArgument(
                        "cannot create --out-dir '" + outDir +
                        "': " + ec.message()));

    common::Table t("extracted snippets: " + data.meta().name);
    t.header({"snippet", "weight", "instrs", "content_hash", "file"});
    std::vector<std::string> written;
    for (const workloads::SnippetProxy& proxy : result.proxies) {
        trace::TraceData snippet =
            trace::proxyToTrace(proxy, data.meta());
        const std::string path = snippetPath(outDir, proxy.name);
        if (auto st = snippet.save(path); !st)
            return fail("extract", st.error());
        written.push_back(path);
        t.row({proxy.name, common::fmt(proxy.weight, 4),
               std::to_string(proxy.loop.size()),
               hex16(snippet.contentHash()), path});
    }
    t.print();
    std::fprintf(stderr,
                 "extracted %zu snippet(s), coverage %.4f of %llu "
                 "instrs\n",
                 result.proxies.size(), result.coverage,
                 static_cast<unsigned long long>(data.instrCount()));

    if (!report.empty()) {
        // Deterministic coverage accounting — a pure function of the
        // input container, like every merged sweep report.
        obs::JsonReport rep;
        rep.meta().tool = "p10trace_extract";
        rep.meta().workload = "trace:" + data.meta().name;
        rep.meta().git = obs::gitDescribe();
        rep.meta().wallSeconds = 0.0;
        rep.meta().hostMips = 0.0;
        rep.meta().simInstrs = data.instrCount();
        rep.addScalar("extract.proxies",
                      static_cast<double>(result.proxies.size()));
        rep.addScalar("extract.coverage", result.coverage);
        rep.addScalar("extract.trace_instrs",
                      static_cast<double>(data.instrCount()));
        rep.addTable(t);
        if (auto st = rep.writeTo(report); !st) {
            std::fprintf(stderr, "p10trace_cli extract: error: %s\n",
                         st.error().message.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote report: %s\n", report.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const char* usage =
        "usage: p10trace_cli <record|info|verify|extract> [flags]\n"
        "       p10trace_cli <subcommand> --help\n";
    if (argc < 2) {
        std::fputs(usage, stderr);
        return 2;
    }
    const char* sub = argv[1];
    if (std::strcmp(sub, "--help") == 0 || std::strcmp(sub, "-h") == 0) {
        std::fputs(usage, stdout);
        return 0;
    }
    if (std::strcmp(sub, "record") == 0)
        return cmdRecord(argc - 1, argv + 1);
    if (std::strcmp(sub, "info") == 0)
        return cmdInfo(argc - 1, argv + 1);
    if (std::strcmp(sub, "verify") == 0)
        return cmdVerify(argc - 1, argv + 1);
    if (std::strcmp(sub, "extract") == 0)
        return cmdExtract(argc - 1, argv + 1);
    std::fprintf(stderr, "p10trace_cli: unknown subcommand '%s'\n%s",
                 sub, usage);
    return 2;
}
