/**
 * @file
 * Trace ingestion frontend tests: container round-trips, hostile-input
 * fuzzing (run under ASan/UBSan in CI), checkpointable replay,
 * registry resolution, cache-key stability, snippet re-extraction, and
 * the committed golden trace corpus.
 *
 * Regenerate the golden corpus with:
 *   P10EE_REGEN_GOLDEN=1 ./test_trace --gtest_filter='*Golden*'
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "core/core.h"
#include "sweep/cache.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "trace/container.h"
#include "trace/extract.h"
#include "trace/replay.h"
#include "workloads/registry.h"
#include "workloads/spec_profiles.h"
#include "workloads/synthetic.h"

using namespace p10ee;

namespace {

/** Deterministic varied instruction stream exercising every encoder
    path: memory ops, branches, prefixed/MMA records, toggles. */
std::vector<isa::TraceInstr>
variedStream(size_t n, uint64_t seedMix = 0)
{
    std::vector<isa::TraceInstr> out;
    out.reserve(n);
    uint64_t pc = 0x10000000 + seedMix * 64;
    for (size_t i = 0; i < n; ++i) {
        isa::TraceInstr in;
        switch ((i + seedMix) % 7) {
        case 0:
            in.op = isa::OpClass::IntAlu;
            in.src[0] = 3;
            in.src[1] = 4;
            in.dest = 5;
            break;
        case 1:
            in.op = isa::OpClass::Load;
            in.src[0] = 1;
            in.dest = 2;
            in.addr = 0x2000000 + i * 8;
            in.size = 8;
            in.memTier = static_cast<uint8_t>(i % 4);
            break;
        case 2:
            in.op = isa::OpClass::Store;
            in.src[0] = 6;
            in.src[1] = 7;
            in.addr = 0x3000000 + i * 16;
            in.size = 16;
            break;
        case 3:
            in.op = isa::OpClass::Branch;
            in.taken = i % 2 == 0;
            in.target = in.taken ? pc - 32 : 0;
            break;
        case 4:
            in.op = isa::OpClass::VsuFp;
            in.src[0] = 40;
            in.src[1] = 41;
            in.src[2] = 42;
            in.dest = 43;
            in.toggle = 0.5f;
            break;
        case 5:
            in.op = isa::OpClass::MmaGer;
            in.src[0] = 50;
            in.src[1] = 51;
            in.dest = isa::reg::kAccBase;
            in.gemm = true;
            in.prefixed = true;
            break;
        default:
            in.op = isa::OpClass::Nop;
            break;
        }
        in.pc = pc;
        pc += in.prefixed ? 8 : 4;
        out.push_back(in);
    }
    return out;
}

trace::TraceMeta
meta(const std::string& name)
{
    trace::TraceMeta m;
    m.name = name;
    m.dialect = "power-isa-3.1";
    m.source = "test";
    return m;
}

trace::TraceData
build(const std::vector<isa::TraceInstr>& stream, uint8_t encoding,
      uint32_t chunkCapacity, const std::string& name = "t")
{
    trace::TraceWriter w(meta(name), encoding, chunkCapacity);
    for (const isa::TraceInstr& in : stream)
        w.add(in);
    return w.finish();
}

bool
sameInstr(const isa::TraceInstr& a, const isa::TraceInstr& b)
{
    common::BinWriter wa;
    common::BinWriter wb;
    trace::writeCanonicalInstr(wa, a);
    trace::writeCanonicalInstr(wb, b);
    return wa.bytes() == wb.bytes();
}

std::string
tmpPath(const std::string& stem)
{
    return (std::filesystem::temp_directory_path() / stem).string();
}

} // namespace

// ---- Container round-trips ----

TEST(TraceContainer, RawRoundTripsBitExact)
{
    const auto stream = variedStream(300);
    trace::TraceData t = build(stream, trace::kEncodingRaw, 64);
    const auto bytes = t.toBytes();
    auto back = trace::TraceData::fromBytes(bytes);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value().instrCount(), stream.size());
    EXPECT_EQ(back.value().contentHash(), t.contentHash());
    EXPECT_EQ(back.value().meta().name, "t");
    EXPECT_EQ(back.value().meta().dialect, "power-isa-3.1");
    EXPECT_TRUE(back.value().verifyContent().ok());
    auto decoded = back.value().decodeAll();
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().size(), stream.size());
    for (size_t i = 0; i < stream.size(); ++i)
        EXPECT_TRUE(sameInstr(decoded.value()[i], stream[i])) << i;
}

TEST(TraceContainer, DeltaRoundTripsBitExact)
{
    const auto stream = variedStream(300);
    trace::TraceData t = build(stream, trace::kEncodingDelta, 64);
    EXPECT_EQ(t.chunkCount(), (300 + 63) / 64);
    const auto bytes = t.toBytes();
    auto back = trace::TraceData::fromBytes(bytes);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_TRUE(back.value().verifyContent().ok());
    auto decoded = back.value().decodeAll();
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().size(), stream.size());
    for (size_t i = 0; i < stream.size(); ++i)
        EXPECT_TRUE(sameInstr(decoded.value()[i], stream[i])) << i;
}

TEST(TraceContainer, ContentHashIsEncodingIndependent)
{
    const auto stream = variedStream(200);
    trace::TraceData raw = build(stream, trace::kEncodingRaw, 32);
    trace::TraceData delta = build(stream, trace::kEncodingDelta, 50);
    EXPECT_EQ(raw.contentHash(), delta.contentHash());
    // ... while the encodings themselves genuinely differ (delta is
    // the compact one).
    EXPECT_NE(raw.toBytes(), delta.toBytes());
    EXPECT_LT(delta.payloadBytes(), raw.payloadBytes());
}

TEST(TraceContainer, WriterIsDeterministic)
{
    const auto stream = variedStream(150);
    EXPECT_EQ(build(stream, trace::kEncodingDelta, 40).toBytes(),
              build(stream, trace::kEncodingDelta, 40).toBytes());
}

TEST(TraceContainer, SaveLoadRoundTrips)
{
    const auto stream = variedStream(64);
    trace::TraceData t = build(stream, trace::kEncodingDelta, 16);
    const std::string path = tmpPath("p10ee_trace_roundtrip.p10trace");
    ASSERT_TRUE(t.save(path).ok());
    auto back = trace::TraceData::load(path);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value().toBytes(), t.toBytes());
    std::filesystem::remove(path);
}

TEST(TraceContainer, MetaValidationRejectsHostileNames)
{
    trace::TraceMeta m = meta("ok");
    EXPECT_TRUE(trace::validateMeta(m).ok());
    m.name = "";
    EXPECT_FALSE(trace::validateMeta(m).ok());
    m.name = "has/slash";
    EXPECT_FALSE(trace::validateMeta(m).ok());
    m.name = "ctrl\x01char";
    EXPECT_FALSE(trace::validateMeta(m).ok());
    m.name = std::string(201, 'a');
    EXPECT_FALSE(trace::validateMeta(m).ok());
    m = meta("ok");
    m.source = std::string(5000, 's');
    EXPECT_FALSE(trace::validateMeta(m).ok());
    m = meta("ok");
    m.dialect = "bad\x7f";
    EXPECT_FALSE(trace::validateMeta(m).ok());
}

// ---- Hostile input (the fuzz suite; CI runs this under ASan/UBSan) ----

TEST(TraceHostile, TruncationAtEveryPrefixRejected)
{
    // Small trace with several chunks so every chunk boundary is one
    // of the swept prefixes.
    trace::TraceData t = build(variedStream(40), trace::kEncodingDelta,
                               8);
    const auto bytes = t.toBytes();
    for (size_t n = 0; n < bytes.size(); ++n) {
        auto r = trace::TraceData::fromBytes(bytes.data(), n);
        EXPECT_FALSE(r.ok()) << "prefix length " << n;
        if (!r.ok()) {
            EXPECT_EQ(r.error().code,
                      common::ErrorCode::InvalidArgument);
        }
    }
}

TEST(TraceHostile, EveryByteFlipRejected)
{
    trace::TraceData t = build(variedStream(20), trace::kEncodingDelta,
                               8);
    auto bytes = t.toBytes();
    for (size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] ^= 0xff;
        auto r = trace::TraceData::fromBytes(bytes);
        EXPECT_FALSE(r.ok()) << "flipped byte " << i;
        bytes[i] ^= 0xff;
    }
}

TEST(TraceHostile, GarbageMagicRejected)
{
    std::vector<uint8_t> junk(64, 0x5a);
    auto r = trace::TraceData::fromBytes(junk);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("magic"), std::string::npos);
}

TEST(TraceHostile, StaleFormatVersionRejected)
{
    trace::TraceData t = build(variedStream(10), trace::kEncodingRaw,
                               8);
    auto bytes = t.toBytes();
    bytes[8] = 99; // the u32 format version follows the 8-byte magic
    auto r = trace::TraceData::fromBytes(bytes);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("format version"),
              std::string::npos);
}

namespace {

/** Re-seal hostile bytes with a valid trailing checksum, so the tests
    reach the post-checksum validation layers. */
std::vector<uint8_t>
resealed(std::vector<uint8_t> bytes)
{
    bytes.resize(bytes.size() - 8);
    common::Fnv1a h;
    h.bytes(bytes.data(), bytes.size());
    common::BinWriter tail;
    tail.u64(h.digest());
    bytes.insert(bytes.end(), tail.bytes().begin(), tail.bytes().end());
    return bytes;
}

/** Byte offset of the chunk-count u32 in a serialized trace. */
size_t
chunkCountOffset(const trace::TraceData& t)
{
    // magic + fmt + 3 length-prefixed strings + instrCount +
    // contentHash + encoding.
    return 8 + 4 + (4 + t.meta().name.size()) +
           (4 + t.meta().dialect.size()) +
           (4 + t.meta().source.size()) + 8 + 8 + 1;
}

} // namespace

TEST(TraceHostile, OversizeChunkCountWithValidChecksumRejected)
{
    trace::TraceData t = build(variedStream(10), trace::kEncodingRaw,
                               8, "h");
    auto bytes = t.toBytes();
    const size_t at = chunkCountOffset(t);
    bytes[at] = 0xff;
    bytes[at + 1] = 0xff;
    bytes[at + 2] = 0xff;
    bytes[at + 3] = 0xff;
    auto r = trace::TraceData::fromBytes(resealed(bytes));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("chunk count"), std::string::npos);
}

TEST(TraceHostile, OutOfRangeOpClassWithValidChecksumRejected)
{
    // A fabricated file carries a self-consistent checksum; the decode
    // layer must still range-check every field before it reaches the
    // core model. Raw encoding: record k's op byte sits at k * 43.
    const auto stream = variedStream(12);
    trace::TraceData t = build(stream, trace::kEncodingRaw, 64, "h");
    auto bytes = t.toBytes();
    const size_t payloadAt = chunkCountOffset(t) + 4 + 4 + 8;
    bytes[payloadAt + 5 * 43] = 200; // record 5's op class
    auto envOk = trace::TraceData::fromBytes(resealed(bytes));
    ASSERT_TRUE(envOk.ok()); // envelope is consistent...
    auto decoded = envOk.value().decodeAll();
    ASSERT_FALSE(decoded.ok()); // ...the payload is not
    EXPECT_NE(decoded.error().message.find("out-of-range"),
              std::string::npos);
    EXPECT_FALSE(envOk.value().verifyContent().ok());
}

TEST(TraceHostile, MutatedPayloadFailsContentVerification)
{
    // Flip a data byte and reseal: the envelope stays valid and the
    // record may still decode, but the content hash must catch it.
    const auto stream = variedStream(12);
    trace::TraceData t = build(stream, trace::kEncodingRaw, 64, "h");
    auto bytes = t.toBytes();
    const size_t payloadAt = chunkCountOffset(t) + 4 + 4 + 8;
    bytes[payloadAt + 2 * 43 + 1] ^= 0x01; // record 2's first src reg
    auto envOk = trace::TraceData::fromBytes(resealed(bytes));
    ASSERT_TRUE(envOk.ok());
    auto st = envOk.value().verifyContent();
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.error().message.find("content hash"),
              std::string::npos);
}

namespace {

/** Byte offset of chunk @p k's payload in @p bytes, the serialized
    @p t: walks the chunk table (u32 count | u64 length | payload). */
size_t
chunkPayloadOffset(const std::vector<uint8_t>& bytes,
                   const trace::TraceData& t, size_t k)
{
    size_t at = chunkCountOffset(t) + 4;
    for (size_t i = 0; i < k; ++i) {
        uint64_t len = 0;
        for (size_t b = 0; b < 8; ++b)
            len |= static_cast<uint64_t>(bytes[at + 4 + b]) << (8 * b);
        at += 12 + static_cast<size_t>(len);
    }
    return at + 12;
}

} // namespace

TEST(TraceContainer, StreamingHashIsTheCanonicalDefinition)
{
    // The content hash is FNV-1a over writeCanonicalInstr's bytes, in
    // stream order, whatever the encoding and chunking; verification
    // streams chunk by chunk and must agree with it.
    const auto stream = variedStream(10000);
    for (uint8_t enc : {trace::kEncodingRaw, trace::kEncodingDelta})
        for (uint32_t cap : {1u, 7u, 4096u}) {
            auto t = trace::TraceData::fromBytes(
                build(stream, enc, cap).toBytes());
            ASSERT_TRUE(t.ok()) << t.error().message;
            auto all = t.value().decodeAll();
            ASSERT_TRUE(all.ok()) << all.error().message;
            common::BinWriter canonical;
            for (const isa::TraceInstr& in : all.value())
                trace::writeCanonicalInstr(canonical, in);
            EXPECT_EQ(canonical.size(), stream.size() * 43);
            EXPECT_EQ(t.value().contentHash(),
                      common::Fnv1a()
                          .bytes(canonical.bytes().data(),
                                 canonical.size())
                          .digest())
                << "encoding " << int(enc) << " capacity " << cap;
            EXPECT_TRUE(t.value().verifyContent().ok());
        }
}

TEST(TraceContainer, StreamingVerifyNamesTheFirstFailingChunk)
{
    // Chunk k > 0 carries an out-of-range op class under a valid file
    // checksum, and chunk 0 a valid but different one. Verification
    // must name chunk k: a content-hash mismatch is only reported once
    // every chunk has decoded.
    const auto stream = variedStream(10000);
    for (uint8_t enc : {trace::kEncodingRaw, trace::kEncodingDelta})
        for (uint32_t cap : {1u, 7u, 4096u}) {
            trace::TraceData t = build(stream, enc, cap, "h");
            const size_t k = t.chunkCount() / 2;
            ASSERT_GT(k, 0u);
            auto bytes = t.toBytes();
            // Every record starts with its op class, in both encodings.
            bytes[chunkPayloadOffset(bytes, t, 0)] =
                static_cast<uint8_t>(isa::OpClass::Nop);
            bytes[chunkPayloadOffset(bytes, t, k)] = 200;
            auto envOk = trace::TraceData::fromBytes(resealed(bytes));
            ASSERT_TRUE(envOk.ok()) << envOk.error().message;
            const std::string want =
                "trace chunk " + std::to_string(k) + " record 0: ";
            auto st = envOk.value().verifyContent();
            ASSERT_FALSE(st.ok());
            EXPECT_NE(st.error().message.find(want), std::string::npos)
                << "encoding " << int(enc) << " capacity " << cap << ": "
                << st.error().message;
            auto all = envOk.value().decodeAll();
            ASSERT_FALSE(all.ok());
            EXPECT_EQ(all.error().message, st.error().message);
        }
}

TEST(TraceHostile, RandomGarbageFuzzNeverCrashes)
{
    std::mt19937_64 rng(0xfeedface);
    for (int iter = 0; iter < 200; ++iter) {
        std::vector<uint8_t> junk(rng() % 400);
        for (uint8_t& b : junk)
            b = static_cast<uint8_t>(rng());
        // Half the iterations keep a plausible prelude so the fuzz
        // reaches past the magic/version gates.
        if (iter % 2 == 0 && junk.size() >= 12) {
            const char m[8] = {'P', '1', '0', 'T', 'R', 'A', 'C', 'E'};
            for (int i = 0; i < 8; ++i)
                junk[static_cast<size_t>(i)] =
                    static_cast<uint8_t>(m[i]);
            junk[8] = 1;
            junk[9] = junk[10] = junk[11] = 0;
        }
        auto r = trace::TraceData::fromBytes(junk);
        // Structured rejection (a random 8-byte checksum collision is
        // out of the question at these sizes).
        EXPECT_FALSE(r.ok());
    }
}

TEST(TraceHostile, MutationFuzzOnValidFileNeverCrashes)
{
    trace::TraceData t = build(variedStream(30), trace::kEncodingDelta,
                               8);
    const auto pristine = t.toBytes();
    std::mt19937_64 rng(0xdecafbad);
    for (int iter = 0; iter < 200; ++iter) {
        auto bytes = pristine;
        // 1-3 random byte mutations, sometimes resealed so the deeper
        // layers (chunk table, varint decoding, semantic ranges) get
        // exercised instead of the checksum front door.
        const int edits = 1 + static_cast<int>(rng() % 3);
        for (int e = 0; e < edits; ++e)
            bytes[rng() % (bytes.size() - 8)] ^=
                static_cast<uint8_t>(1u << (rng() % 8));
        if (iter % 2 == 0)
            bytes = resealed(bytes);
        auto r = trace::TraceData::fromBytes(bytes);
        if (r.ok()) {
            // A resealed mutation can yield a consistent envelope;
            // decode + content verification must still be safe and
            // must catch any payload change.
            auto st = r.value().verifyContent();
            (void)st;
        }
    }
}

// ---- Replay ----

TEST(TraceReplay, WrapsAroundLikeReplaySource)
{
    const auto stream = variedStream(50);
    auto data = std::make_shared<const trace::TraceData>(
        build(stream, trace::kEncodingDelta, 16));
    ASSERT_TRUE(data->verifyContent().ok());
    trace::TraceReplaySource src(data);
    EXPECT_EQ(src.name(), "trace:t");
    for (size_t i = 0; i < stream.size() * 2 + 25; ++i) {
        const isa::TraceInstr in = src.next();
        EXPECT_TRUE(sameInstr(in, stream[i % stream.size()])) << i;
    }
}

TEST(TraceReplay, CursorStateRoundTripsAcrossChunks)
{
    const auto stream = variedStream(90);
    auto data = std::make_shared<const trace::TraceData>(
        build(stream, trace::kEncodingDelta, 16));
    ASSERT_TRUE(data->verifyContent().ok());

    trace::TraceReplaySource a(data);
    for (int i = 0; i < 37; ++i)
        a.next();
    common::BinWriter w;
    a.saveState(w);

    trace::TraceReplaySource b(data);
    common::BinReader r(w.bytes());
    ASSERT_TRUE(b.loadState(r).ok());
    EXPECT_EQ(b.cursor(), a.cursor());
    for (int i = 0; i < 200; ++i) {
        const isa::TraceInstr fromA = a.next();
        const isa::TraceInstr fromB = b.next();
        EXPECT_TRUE(sameInstr(fromA, fromB)) << i;
    }
}

TEST(TraceReplay, LoadStateOverDifferentTraceRejected)
{
    auto dataA = std::make_shared<const trace::TraceData>(
        build(variedStream(30), trace::kEncodingDelta, 8, "a"));
    auto dataB = std::make_shared<const trace::TraceData>(
        build(variedStream(30, 1), trace::kEncodingDelta, 8, "b"));
    trace::TraceReplaySource a(dataA);
    a.next();
    common::BinWriter w;
    a.saveState(w);
    trace::TraceReplaySource b(dataB);
    common::BinReader r(w.bytes());
    auto st = b.loadState(r);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.error().message.find("different trace"),
              std::string::npos);
}

TEST(TraceReplay, CheckpointRestoreMidTraceBitIdentical)
{
    // The acceptance bar: save mid-trace, restore into a fresh model,
    // and the measured window is bit-identical to the uninterrupted
    // run — through the real ckpt::Checkpoint container.
    const auto stream = variedStream(400);
    auto data = std::make_shared<const trace::TraceData>(
        build(stream, trace::kEncodingDelta, 64));
    ASSERT_TRUE(data->verifyContent().ok());

    auto fingerprint = [&](bool viaCheckpoint) {
        core::CoreModel model(core::power10());
        trace::TraceReplaySource src(data);
        std::vector<workloads::InstrSource*> threads{&src};
        std::vector<workloads::CheckpointableSource*> walkers{&src};
        model.beginRun(threads);
        model.advance(2000);
        if (viaCheckpoint) {
            ckpt::CheckpointMeta m;
            m.configName = "power10";
            m.workload = "trace:t";
            auto ck = ckpt::Checkpoint::capture(model, walkers, m);
            const auto bytes = ck.toBytes();
            auto back = ckpt::Checkpoint::fromBytes(bytes);
            EXPECT_TRUE(back.ok());
            core::CoreModel fresh(core::power10());
            trace::TraceReplaySource src2(data);
            std::vector<workloads::InstrSource*> threads2{&src2};
            std::vector<workloads::CheckpointableSource*> walkers2{
                &src2};
            fresh.beginRun(threads2);
            EXPECT_TRUE(back.value().restore(fresh, walkers2).ok());
            core::RunOptions opts;
            opts.measureInstrs = 3000;
            const auto run = fresh.measure(opts);
            return std::to_string(run.cycles) + "/" +
                   std::to_string(run.instrs) + "/" +
                   std::to_string(src2.cursor());
        }
        core::RunOptions opts;
        opts.measureInstrs = 3000;
        const auto run = model.measure(opts);
        return std::to_string(run.cycles) + "/" +
               std::to_string(run.instrs) + "/" +
               std::to_string(src.cursor());
    };
    EXPECT_EQ(fingerprint(false), fingerprint(true));
}

// ---- Registry resolution ----

TEST(TraceRegistry, PlainNamesStillResolve)
{
    auto p = workloads::resolveWorkload("xz");
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value().name, "xz");
    EXPECT_TRUE(p.value().frontend.empty());
    auto src = workloads::makeSource(p.value(), 0);
    ASSERT_TRUE(src.ok());
    EXPECT_NE(dynamic_cast<workloads::SyntheticWorkload*>(
                  src.value().get()),
              nullptr);
}

TEST(TraceRegistry, UnknownNamesAndSchemesAreNotFound)
{
    trace::registerTraceFrontend();
    auto a = workloads::resolveWorkload("no_such_profile");
    ASSERT_FALSE(a.ok());
    EXPECT_EQ(a.error().code, common::ErrorCode::NotFound);
    auto b = workloads::resolveWorkload("bogus:whatever");
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(b.error().code, common::ErrorCode::NotFound);
    EXPECT_NE(b.error().message.find("scheme"), std::string::npos);
    auto c = workloads::resolveWorkload("trace:");
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.error().code, common::ErrorCode::InvalidArgument);
}

TEST(TraceRegistry, TraceSchemeResolvesAndReplays)
{
    trace::registerTraceFrontend();
    EXPECT_TRUE(workloads::hasFrontend("trace"));
    const std::string path = tmpPath("p10ee_trace_registry.p10trace");
    trace::TraceData t =
        build(variedStream(80), trace::kEncodingDelta, 32, "reg");
    ASSERT_TRUE(t.save(path).ok());

    auto p = workloads::resolveWorkload("trace:" + path);
    ASSERT_TRUE(p.ok()) << p.error().message;
    EXPECT_EQ(p.value().name, "trace:reg");
    EXPECT_EQ(p.value().frontend, "trace");
    EXPECT_EQ(p.value().sourcePath, path);
    EXPECT_EQ(p.value().contentHash, t.contentHash());

    auto src = workloads::makeSource(p.value(), 0);
    ASSERT_TRUE(src.ok()) << src.error().message;
    EXPECT_EQ(src.value()->name(), "trace:reg");
    std::filesystem::remove(path);
}

TEST(TraceRegistry, FileSwappedAfterResolutionRejected)
{
    trace::registerTraceFrontend();
    const std::string path = tmpPath("p10ee_trace_swap.p10trace");
    trace::TraceData t =
        build(variedStream(40), trace::kEncodingDelta, 16, "orig");
    ASSERT_TRUE(t.save(path).ok());
    auto p = workloads::resolveWorkload("trace:" + path);
    ASSERT_TRUE(p.ok());

    trace::TraceData other =
        build(variedStream(40, 3), trace::kEncodingDelta, 16, "orig");
    ASSERT_TRUE(other.save(path).ok());
    auto src = workloads::makeSource(p.value(), 0);
    ASSERT_FALSE(src.ok());
    EXPECT_EQ(src.error().code, common::ErrorCode::InvalidConfig);
    EXPECT_NE(src.error().message.find("changed"), std::string::npos);
    std::filesystem::remove(path);
}

TEST(TraceRegistry, MissingFileIsStructuredError)
{
    trace::registerTraceFrontend();
    auto p = workloads::resolveWorkload(
        "trace:/nonexistent/definitely_missing.p10trace");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.error().code, common::ErrorCode::NotFound);
}

TEST(TraceRegistry, DirectoryPathIsStructuredNotFound)
{
    // A directory opens like a file; it must resolve to the structured
    // NotFound a missing path gets, naming the path.
    trace::registerTraceFrontend();
    const std::string dir = tmpPath("p10ee_trace_dir_workload");
    std::filesystem::create_directories(dir);
    auto p = workloads::resolveWorkload("trace:" + dir);
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.error().code, common::ErrorCode::NotFound);
    EXPECT_NE(p.error().message.find(dir), std::string::npos)
        << p.error().message;
    std::filesystem::remove_all(dir);
}

TEST(TraceRegistry, SweepRunReplaysTheTraceItHolds)
{
    // At --jobs 1 no shard overlaps the next, so only the run's own
    // hold keeps the container loaded: deleting the file after the
    // first shard must change nothing.
    trace::registerTraceFrontend();
    const std::string path = tmpPath("p10ee_trace_held.p10trace");
    ASSERT_TRUE(build(variedStream(3000), trace::kEncodingDelta, 256,
                      "held")
                    .save(path)
                    .ok());
    auto spec = sweep::SweepSpec::fromJson(
        "{\"configs\":[\"power10\"],\"workloads\":[\"trace:" + path +
        "\"],\"smt\":[1,2],\"seeds\":2,\"instrs\":2000,"
        "\"warmup\":500,\"seed\":7}");
    ASSERT_TRUE(spec.ok()) << spec.error().message;
    auto mergedReport = [&](bool deleteAfterFirstShard) {
        sweep::SweepRunner runner(spec.value());
        if (deleteAfterFirstShard)
            runner.onProgress = [&](const api::ProgressEvent&) {
                std::filesystem::remove(path);
            };
        auto res = runner.run(1);
        EXPECT_TRUE(res.ok());
        if (!res.ok())
            return std::string();
        EXPECT_EQ(res.value().shards.size(), 4u);
        EXPECT_EQ(res.value().okCount, 4u);
        return sweep::SweepRunner::merge(spec.value(), res.value(), "t")
            .toJson();
    };
    const std::string undisturbed = mergedReport(false);
    const std::string disturbed = mergedReport(true);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_FALSE(undisturbed.empty());
    EXPECT_EQ(disturbed, undisturbed);
}

// ---- Cache-key stability ----

TEST(TraceCacheKeys, MetadataChangesKeepKeysStable)
{
    // Same instruction content, re-described metadata (dialect,
    // source): the profile hash and the shard cache key must not move.
    const auto stream = variedStream(60);
    trace::TraceWriter wa(meta("stable"), trace::kEncodingDelta, 16);
    trace::TraceMeta mb = meta("stable");
    mb.dialect = "power-isa-3.0";
    mb.source = "entirely different provenance";
    trace::TraceWriter wb(std::move(mb), trace::kEncodingRaw, 64);
    for (const isa::TraceInstr& in : stream) {
        wa.add(in);
        wb.add(in);
    }
    const std::string pa = tmpPath("p10ee_trace_key_a.p10trace");
    const std::string pb = tmpPath("p10ee_trace_key_b.p10trace");
    ASSERT_TRUE(wa.finish().save(pa).ok());
    ASSERT_TRUE(wb.finish().save(pb).ok());

    trace::registerTraceFrontend();
    auto profA = workloads::resolveWorkload("trace:" + pa);
    auto profB = workloads::resolveWorkload("trace:" + pb);
    ASSERT_TRUE(profA.ok());
    ASSERT_TRUE(profB.ok());
    EXPECT_EQ(workloads::profileHash(profA.value()),
              workloads::profileHash(profB.value()));

    sweep::SweepSpec spec;
    spec.configs = {"power10"};
    spec.smt = {1};
    spec.instrs = 1000;
    sweep::ShardSpec sa;
    sa.configName = "power10";
    sa.config = core::power10();
    sa.profile = profA.value();
    sweep::ShardSpec sb = sa;
    sb.profile = profB.value();
    spec.workloads = {"trace:" + pa};
    EXPECT_EQ(sweep::ShardCache::shardKey(spec, sa),
              sweep::ShardCache::shardKey(spec, sb));
    std::filesystem::remove(pa);
    std::filesystem::remove(pb);
}

TEST(TraceCacheKeys, OneMutatedInstructionChangesKeys)
{
    auto stream = variedStream(60);
    trace::TraceData a =
        build(stream, trace::kEncodingDelta, 16, "mut");
    stream[30].toggle = 0.75f; // one field of one instruction
    trace::TraceData b =
        build(stream, trace::kEncodingDelta, 16, "mut");
    EXPECT_NE(a.contentHash(), b.contentHash());

    workloads::WorkloadProfile pa;
    pa.name = "trace:mut";
    pa.frontend = "trace";
    pa.contentHash = a.contentHash();
    workloads::WorkloadProfile pb = pa;
    pb.contentHash = b.contentHash();
    EXPECT_NE(workloads::profileHash(pa), workloads::profileHash(pb));

    sweep::SweepSpec spec;
    spec.configs = {"power10"};
    spec.workloads = {"trace:mut"};
    spec.smt = {1};
    spec.instrs = 1000;
    sweep::ShardSpec sa;
    sa.configName = "power10";
    sa.config = core::power10();
    sa.profile = pa;
    sweep::ShardSpec sb = sa;
    sb.profile = pb;
    EXPECT_NE(sweep::ShardCache::shardKey(spec, sa),
              sweep::ShardCache::shardKey(spec, sb));
}

TEST(TraceCacheKeys, SyntheticProfileHashIgnoresFrontendFields)
{
    // Compatibility pin: pre-existing synthetic cache keys must not
    // move just because WorkloadProfile grew frontend-binding fields.
    const workloads::WorkloadProfile* p = workloads::findProfile("xz");
    ASSERT_NE(p, nullptr);
    workloads::WorkloadProfile modified = *p;
    modified.sourcePath = "/anything";
    modified.contentHash = 12345; // dead fields while frontend == ""
    EXPECT_EQ(workloads::profileHash(*p),
              workloads::profileHash(modified));
}

// ---- Snippet re-extraction ----

namespace {

/** A stream dominated by one 8-instruction loop at 0x1000, with a
    short prologue ahead of it. */
std::vector<isa::TraceInstr>
loopStream(int iterations, uint64_t loopBase = 0x1000)
{
    std::vector<isa::TraceInstr> out;
    for (int i = 0; i < 5; ++i) {
        isa::TraceInstr in;
        in.op = isa::OpClass::IntAlu;
        in.pc = 0x100 + static_cast<uint64_t>(i) * 4;
        out.push_back(in);
    }
    for (int it = 0; it < iterations; ++it) {
        for (int i = 0; i < 8; ++i) {
            isa::TraceInstr in;
            in.pc = loopBase + static_cast<uint64_t>(i) * 4;
            if (i == 7) {
                in.op = isa::OpClass::Branch;
                in.taken = true;
                in.target = loopBase;
            } else if (i == 3) {
                in.op = isa::OpClass::Load;
                in.src[0] = 1;
                in.dest = 2;
                in.addr = 0x9000 + static_cast<uint64_t>(it) * 8;
                in.size = 8;
            } else {
                in.op = isa::OpClass::IntAlu;
                in.src[0] = 3;
                in.dest = 4;
            }
            out.push_back(in);
        }
    }
    return out;
}

} // namespace

TEST(TraceExtract, FindsTheDominantLoopWithCoverage)
{
    trace::TraceData t =
        build(loopStream(100), trace::kEncodingDelta, 64, "loopy");
    auto r = trace::extractProxies(t, trace::ExtractOptions{});
    ASSERT_TRUE(r.ok()) << r.error().message;
    ASSERT_EQ(r.value().proxies.size(), 1u);
    const workloads::SnippetProxy& proxy = r.value().proxies[0];
    EXPECT_EQ(proxy.name, "loopy#pc1000");
    EXPECT_EQ(proxy.loop.size(), 8u);
    EXPECT_GT(r.value().coverage, 0.9);
    EXPECT_LE(r.value().coverage, 1.0);
    // The snippet closes on itself: tail is a taken branch to the head.
    EXPECT_TRUE(proxy.loop.back().taken);
    EXPECT_EQ(proxy.loop.back().target, proxy.loop.front().pc);
}

TEST(TraceExtract, SnippetRoundTripsAsItsOwnTrace)
{
    trace::TraceData t =
        build(loopStream(50), trace::kEncodingDelta, 64, "loopy");
    auto r = trace::extractProxies(t, trace::ExtractOptions{});
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r.value().proxies.empty());
    trace::TraceData snip =
        trace::proxyToTrace(r.value().proxies[0], t.meta());
    EXPECT_EQ(snip.meta().name, "loopy#pc1000");
    EXPECT_EQ(snip.meta().source, "extract:loopy");
    EXPECT_TRUE(snip.verifyContent().ok());
    auto bytes = snip.toBytes();
    auto back = trace::TraceData::fromBytes(bytes);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().instrCount(), 8u);
}

TEST(TraceExtract, L1SpanFilterRejectsGiantLoops)
{
    // Same shape but the "loop" spans 1MB of code — fails the
    // L1-contained bar, so nothing is extracted.
    std::vector<isa::TraceInstr> stream;
    for (int it = 0; it < 30; ++it) {
        for (int i = 0; i < 4; ++i) {
            isa::TraceInstr in;
            in.pc = 0x1000 + static_cast<uint64_t>(i) * (1u << 18);
            if (i == 3) {
                in.op = isa::OpClass::Branch;
                in.taken = true;
                in.target = 0x1000;
            } else {
                in.op = isa::OpClass::IntAlu;
            }
            stream.push_back(in);
        }
    }
    trace::TraceData t =
        build(stream, trace::kEncodingDelta, 64, "giant");
    auto r = trace::extractProxies(t, trace::ExtractOptions{});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().proxies.empty());
    EXPECT_EQ(r.value().coverage, 0.0);
}

TEST(TraceExtract, CapturedSyntheticWorkloadExtractsSomething)
{
    // End-to-end: record a real synthetic workload, then mine it. The
    // CFG walkers loop over their static code, so extraction must find
    // at least one L1-contained loop with non-trivial coverage.
    const workloads::WorkloadProfile* p = workloads::findProfile("xz");
    ASSERT_NE(p, nullptr);
    workloads::SyntheticWorkload src(*p);
    trace::TraceData t =
        trace::recordTrace(src, 20000, meta("xz-rec"));
    auto r = trace::extractProxies(t, trace::ExtractOptions{});
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().proxies.empty());
    EXPECT_GT(r.value().coverage, 0.1);
}

// ---- Recording ----

TEST(TraceRecord, CaptureTeeMatchesTheInnerStream)
{
    const workloads::WorkloadProfile* p =
        workloads::findProfile("perlbench");
    ASSERT_NE(p, nullptr);
    workloads::SyntheticWorkload a(*p);
    workloads::SyntheticWorkload b(*p);
    trace::TraceWriter w(meta("tee"));
    trace::TraceCapture tee(a, w);
    for (int i = 0; i < 500; ++i) {
        const isa::TraceInstr viaTee = tee.next();
        const isa::TraceInstr direct = b.next();
        ASSERT_TRUE(sameInstr(viaTee, direct)) << i;
    }
    trace::TraceData t = w.finish();
    EXPECT_EQ(t.instrCount(), 500u);
    // Replay equals a third walker of the same profile.
    ASSERT_TRUE(t.verifyContent().ok());
    auto data = std::make_shared<const trace::TraceData>(std::move(t));
    trace::TraceReplaySource replay(data);
    workloads::SyntheticWorkload c(*p);
    for (int i = 0; i < 500; ++i)
        ASSERT_TRUE(sameInstr(replay.next(), c.next())) << i;
}

TEST(TraceRecord, DialectAutoDetection)
{
    // Pure scalar stream -> 3.0; MMA/prefixed content -> 3.1.
    std::vector<isa::TraceInstr> scalar(20);
    for (size_t i = 0; i < scalar.size(); ++i)
        scalar[i].pc = 0x100 + i * 4;
    workloads::ReplaySource s30("s30", scalar);
    trace::TraceMeta m;
    m.name = "d30";
    trace::TraceData t30 = trace::recordTrace(s30, 20, m);
    EXPECT_EQ(t30.meta().dialect, "power-isa-3.0");

    auto withMma = scalar;
    withMma[5].op = isa::OpClass::MmaGer;
    workloads::ReplaySource s31("s31", withMma);
    m.name = "d31";
    trace::TraceData t31 = trace::recordTrace(s31, 20, m);
    EXPECT_EQ(t31.meta().dialect, "power-isa-3.1");
}

// ---- Golden corpus ----
//
// Committed trace containers, one per ISA dialect, with their expected
// content hashes. Any change to the canonical record layout, the delta
// codec, or the FNV discipline that is not accompanied by a deliberate
// format bump + corpus regeneration fails here.
// Regenerate with: P10EE_REGEN_GOLDEN=1 ./test_trace
//     --gtest_filter='*Golden*'

namespace {

struct GoldenTrace
{
    const char* stem;
    uint64_t seedMix; ///< variedStream parameter
    size_t instrs;
    const char* dialect;
};

constexpr GoldenTrace kGoldenTraces[] = {
    {"trace_isa30", 1, 96, "power-isa-3.0"},
    {"trace_isa31", 0, 96, "power-isa-3.1"},
};

std::vector<isa::TraceInstr>
goldenStream(const GoldenTrace& g)
{
    auto stream = variedStream(g.instrs, g.seedMix);
    if (std::string(g.dialect) == "power-isa-3.0")
        for (isa::TraceInstr& in : stream)
            if (in.prefixed || isa::isMma(in.op)) {
                in = isa::TraceInstr{};
                in.op = isa::OpClass::FpScalar;
                in.src[0] = 32;
                in.dest = 33;
            }
    return stream;
}

} // namespace

TEST(TraceGolden, CorpusLoadsVerifiesAndMatchesItsHash)
{
    const bool regen = std::getenv("P10EE_REGEN_GOLDEN") != nullptr;
    for (const GoldenTrace& g : kGoldenTraces) {
        const std::string path =
            std::string(P10EE_GOLDEN_DIR) + "/" + g.stem + ".p10trace";
        const std::string hashPath =
            std::string(P10EE_GOLDEN_DIR) + "/" + g.stem + ".hash.txt";
        trace::TraceMeta m;
        m.name = g.stem;
        m.dialect = g.dialect;
        m.source = "golden corpus (tests/test_trace.cpp)";
        trace::TraceWriter w(m, trace::kEncodingDelta, 32);
        for (const isa::TraceInstr& in : goldenStream(g))
            w.add(in);
        trace::TraceData fresh = w.finish();
        if (regen) {
            ASSERT_TRUE(fresh.save(path).ok());
            std::ofstream hf(hashPath, std::ios::trunc);
            char hex[17];
            std::snprintf(hex, sizeof(hex), "%016llx",
                          static_cast<unsigned long long>(
                              fresh.contentHash()));
            hf << hex << "\n";
            continue;
        }
        auto loaded = trace::TraceData::load(path);
        ASSERT_TRUE(loaded.ok()) << loaded.error().message;
        EXPECT_TRUE(loaded.value().verifyContent().ok()) << g.stem;
        EXPECT_EQ(loaded.value().meta().dialect, g.dialect);
        // The committed file must be byte-identical to what today's
        // writer produces — serialization drift fails loudly.
        EXPECT_EQ(loaded.value().toBytes(), fresh.toBytes()) << g.stem;
        std::ifstream hf(hashPath);
        ASSERT_TRUE(hf.good()) << hashPath;
        std::string hex;
        hf >> hex;
        char expect[17];
        std::snprintf(expect, sizeof(expect), "%016llx",
                      static_cast<unsigned long long>(
                          loaded.value().contentHash()));
        EXPECT_EQ(hex, expect) << g.stem;
    }
}

TEST(TraceGolden, CorpusCheckpointRestoreBitIdentity)
{
    if (std::getenv("P10EE_REGEN_GOLDEN") != nullptr)
        GTEST_SKIP() << "regenerating corpus";
    // Replay cursor save/restore over the committed containers stays
    // bit-identical: the stream after restore matches the stream of an
    // uninterrupted source at the same offset.
    for (const GoldenTrace& g : kGoldenTraces) {
        const std::string path =
            std::string(P10EE_GOLDEN_DIR) + "/" + g.stem + ".p10trace";
        auto loaded = trace::TraceData::load(path);
        ASSERT_TRUE(loaded.ok());
        auto data = std::make_shared<const trace::TraceData>(
            std::move(loaded.value()));
        ASSERT_TRUE(data->verifyContent().ok());
        trace::TraceReplaySource uninterrupted(data);
        trace::TraceReplaySource first(data);
        for (int i = 0; i < 41; ++i) {
            uninterrupted.next();
            first.next();
        }
        common::BinWriter w;
        first.saveState(w);
        trace::TraceReplaySource resumed(data);
        common::BinReader r(w.bytes());
        ASSERT_TRUE(resumed.loadState(r).ok());
        for (int i = 0; i < 150; ++i)
            ASSERT_TRUE(
                sameInstr(uninterrupted.next(), resumed.next()))
                << g.stem << " instr " << i;
    }
}
