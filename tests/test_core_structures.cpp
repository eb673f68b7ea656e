/**
 * @file
 * Tests for the core model's building blocks: caches, translation,
 * throttle rings, bandwidth servers, prefetcher, branch predictors.
 */

#include <gtest/gtest.h>

#include "core/branch.h"
#include "core/cache.h"
#include "core/config.h"
#include "core/prefetch.h"
#include "common/rng.h"
#include "core/rings.h"

using namespace p10ee::core;

TEST(Cache, ColdMissThenHit)
{
    CacheModel c(1024, 2, 64);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1030)); // same line
    EXPECT_FALSE(c.access(0x1040)); // next line
}

TEST(Cache, LruEvictsOldest)
{
    // 2 ways, 64B lines, 2 sets (256B total).
    CacheModel c(256, 2, 64);
    // Three distinct lines mapping to set 0 (stride = 128).
    EXPECT_FALSE(c.access(0x0000));
    EXPECT_FALSE(c.access(0x0080));
    EXPECT_TRUE(c.access(0x0000));  // refresh line 0
    EXPECT_FALSE(c.access(0x0100)); // evicts line 0x80 (LRU)
    EXPECT_TRUE(c.access(0x0000));
    EXPECT_FALSE(c.access(0x0080)); // was evicted
}

TEST(Cache, ProbeDoesNotDisturbLru)
{
    CacheModel c(256, 2, 64);
    c.install(0x0000);
    c.install(0x0080);
    // Probing 0x0000 must not make it most-recent.
    EXPECT_TRUE(c.probe(0x0000));
    c.install(0x0100); // evicts 0x0000 (still LRU)
    EXPECT_FALSE(c.probe(0x0000));
    EXPECT_TRUE(c.probe(0x0080));
}

TEST(Cache, MissWithoutInstallLeavesStateAlone)
{
    CacheModel c(1024, 2, 64);
    EXPECT_FALSE(c.access(0x2000, /*install=*/false));
    EXPECT_FALSE(c.probe(0x2000));
}

TEST(Cache, ResetDropsEverything)
{
    CacheModel c(1024, 2, 64);
    c.install(0x1000);
    c.reset();
    EXPECT_FALSE(c.probe(0x1000));
}

TEST(Cache, CapacityHoldsWorkingSet)
{
    CacheModel c(64 * 1024, 8, 64);
    for (uint64_t a = 0; a < 60 * 1024; a += 64)
        c.access(a);
    int hits = 0;
    for (uint64_t a = 0; a < 60 * 1024; a += 64)
        hits += c.access(a);
    EXPECT_GT(hits, 900); // ~all resident on the second pass
}

TEST(Translation, PageGranularity)
{
    TranslationCache t(16, 64 * 1024);
    EXPECT_FALSE(t.access(0x10000));
    EXPECT_TRUE(t.access(0x1ffff)); // same 64K page
    EXPECT_FALSE(t.access(0x20000));
}

TEST(Rings, WidthEnforced)
{
    ThrottleRing r(2);
    EXPECT_EQ(r.record(100), 100u);
    EXPECT_EQ(r.record(100), 100u);
    EXPECT_EQ(r.record(100), 101u); // third claim spills to next cycle
}

TEST(Rings, FindFreeSkipsFullCycles)
{
    ThrottleRing r(1);
    r.record(50);
    r.record(50); // lands at 51
    EXPECT_EQ(r.findFree(50), 52u);
}

TEST(Rings, IndependentCyclesDoNotInterfere)
{
    ThrottleRing r(1);
    for (uint64_t c = 0; c < 100; ++c)
        EXPECT_EQ(r.record(c * 3), c * 3);
}

TEST(Rings, SparseFarApartCyclesReuseSlots)
{
    // Cycles 2^16 apart share a ring slot; stamping must keep them
    // independent.
    ThrottleRing r(1);
    EXPECT_EQ(r.record(10), 10u);
    EXPECT_EQ(r.record(10 + (1u << 16)), 10u + (1u << 16));
}

namespace {

/** A saved ring with one live entry, built by hand. */
std::vector<uint8_t>
ringBytes(uint64_t width, uint64_t cycle, uint16_t count)
{
    p10ee::common::BinWriter w;
    w.u64(width);
    w.u64(0xFFFF); // 64K slots
    w.u64(1);
    w.u64(cycle);
    w.u16(count);
    return w.takeBytes();
}

} // namespace

TEST(Rings, LoadRejectsCycleBeyondRange)
{
    ThrottleRing r(2);
    auto bytes = ringBytes(2, ThrottleRing::kCycleLimit, 1);
    p10ee::common::BinReader in(bytes);
    auto st = r.loadState(in);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, p10ee::common::ErrorCode::InvalidArgument);
}

TEST(Rings, LoadAcceptsLastCycleAndRoundTrips)
{
    const uint64_t last = ThrottleRing::kCycleLimit - 1;
    ThrottleRing r(2);
    auto bytes = ringBytes(2, last, 1);
    p10ee::common::BinReader in(bytes);
    ASSERT_TRUE(r.loadState(in).ok());
    EXPECT_EQ(r.usedAt(last), 1);
    EXPECT_EQ(r.usedAt(last & 0xFFFF), 0); // same slot, other cycle
    p10ee::common::BinWriter out;
    r.saveState(out, 0);
    EXPECT_EQ(out.bytes(), bytes);
    r.claimAt(last);
    EXPECT_FALSE(r.hasRoom(last));
}

TEST(Rings, QueueAndServerLoadRejectCycleBeyondRange)
{
    for (uint64_t cycle : {kRestoredCycleLimit - 1, kRestoredCycleLimit}) {
        SCOPED_TRACE(cycle);
        const bool inRange = cycle < kRestoredCycleLimit;

        p10ee::common::BinWriter q;
        q.u64(1); // one queued entry
        q.u64(cycle);
        FifoRing fifo;
        fifo.reset(4);
        p10ee::common::BinReader qin(q.bytes());
        EXPECT_EQ(fifo.loadState(qin).ok(), inRange);

        p10ee::common::BinWriter s;
        s.u32(4); // occupancy
        s.u64(cycle);
        BandwidthServer server(4);
        p10ee::common::BinReader sin(s.bytes());
        EXPECT_EQ(server.loadState(sin).ok(), inRange);
    }
}

TEST(RingsDeathTest, ClaimBeyondCycleRangeAborts)
{
    ThrottleRing r(1);
    EXPECT_DEATH(r.claimAt(ThrottleRing::kCycleLimit),
                 "throttle cycle beyond ring range");
}

TEST(Bandwidth, SerializesOverlappingRequests)
{
    BandwidthServer s(4);
    EXPECT_EQ(s.serve(100), 100u);
    EXPECT_EQ(s.serve(100), 104u);
    EXPECT_EQ(s.serve(100), 108u);
    EXPECT_EQ(s.serve(200), 200u); // idle gap resets queueing
}

TEST(Prefetcher, TrainsOnSequentialMisses)
{
    StreamPrefetcher p(4, 4);
    std::vector<uint64_t> out;
    p.onMiss(100, out);
    EXPECT_TRUE(out.empty()); // training
    p.onMiss(101, out);
    EXPECT_TRUE(out.empty()); // confidence building
    p.onMiss(102, out);
    ASSERT_FALSE(out.empty()); // confirmed: runs ahead
    EXPECT_EQ(out.front(), 103u);
}

TEST(Prefetcher, RunsAheadWithoutDemandMisses)
{
    StreamPrefetcher p(4, 4);
    std::vector<uint64_t> out;
    p.onMiss(10, out);
    p.onMiss(11, out);
    p.onMiss(12, out); // prefetches 13..16, head at 17
    // The next demand miss lands at the head (13..16 were covered).
    p.onMiss(17, out);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.front(), 18u);
}

TEST(Prefetcher, RandomMissesDoNotTriggerPrefetch)
{
    StreamPrefetcher p(4, 4);
    std::vector<uint64_t> out;
    p10ee::common::Xoshiro r(3);
    int prefetches = 0;
    for (int i = 0; i < 200; ++i) {
        p.onMiss(r.below(1u << 30), out);
        prefetches += !out.empty();
    }
    EXPECT_LT(prefetches, 5);
}

TEST(Prefetcher, TracksMultipleStreams)
{
    StreamPrefetcher p(4, 2);
    std::vector<uint64_t> out;
    // Interleave two streams; both must confirm.
    for (int i = 0; i < 4; ++i) {
        p.onMiss(1000 + static_cast<uint64_t>(i), out);
        p.onMiss(5000 + static_cast<uint64_t>(i), out);
    }
    p.onMiss(1000 + 4 + 2, out); // continue stream 1 at its head
    EXPECT_FALSE(out.empty());
}

TEST(Branch, LearnsBiasedBranch)
{
    BranchParams params;
    BranchPredictor bp(params);
    uint64_t pc = 0x4000;
    int wrong = 0;
    for (int i = 0; i < 500; ++i) {
        bool taken = true;
        wrong += bp.predictDirection(pc) != taken;
        bp.updateDirection(pc, taken);
    }
    EXPECT_LT(wrong, 5);
}

TEST(Branch, GshareLearnsAlternation)
{
    BranchParams params;
    BranchPredictor bp(params);
    uint64_t pc = 0x4100;
    int wrongLate = 0;
    for (int i = 0; i < 600; ++i) {
        bool taken = (i % 2) == 0;
        bool pred = bp.predictDirection(pc);
        if (i > 200)
            wrongLate += pred != taken;
        bp.updateDirection(pc, taken);
    }
    EXPECT_LT(wrongLate, 40);
}

TEST(Branch, LocalPatternCatchesLongPeriods)
{
    BranchParams p9;
    BranchParams p10 = p9;
    p10.localPattern = true;
    p10.localBits = 14;
    p10.secondGshare = true;
    BranchPredictor base(p9), better(p10);

    // Period-7 loop branch embedded in noisy global history: 16 other
    // random branches interleave between visits.
    p10ee::common::Xoshiro r(41);
    int wrongBase = 0, wrongBetter = 0;
    uint64_t loopPc = 0x5000;
    int count = 0;
    for (int i = 0; i < 6000; ++i) {
        uint64_t noisePc = 0x6000 + r.below(16) * 4;
        bool noiseTaken = r.chance(0.5);
        base.predictDirection(noisePc);
        base.updateDirection(noisePc, noiseTaken);
        better.predictDirection(noisePc);
        better.updateDirection(noisePc, noiseTaken);

        bool taken = (count++ % 7) != 6;
        if (i > 2000) {
            wrongBase += base.predictDirection(loopPc) != taken;
            wrongBetter += better.predictDirection(loopPc) != taken;
        }
        base.updateDirection(loopPc, taken);
        better.updateDirection(loopPc, taken);
    }
    EXPECT_LT(wrongBetter, wrongBase);
}

TEST(Branch, PathHistoryIndirectBeatsLastTarget)
{
    BranchParams lastTarget;
    BranchParams pathHist = lastTarget;
    pathHist.indirectPathHist = true;
    pathHist.indirectWays = 2;
    BranchPredictor simple(lastTarget), smart(pathHist);

    // A dispatch branch cycling through 4 targets.
    uint64_t pc = 0x7000;
    uint64_t targets[4] = {0x8000, 0x9000, 0xa000, 0xb000};
    int wrongSimple = 0, wrongSmart = 0;
    for (int i = 0; i < 4000; ++i) {
        uint64_t t = targets[i % 4];
        if (i > 1000) {
            wrongSimple += simple.predictIndirect(pc) != t;
            wrongSmart += smart.predictIndirect(pc) != t;
        }
        simple.updateIndirect(pc, t);
        smart.updateIndirect(pc, t);
    }
    EXPECT_LT(wrongSmart, wrongSimple / 2);
}

TEST(Branch, PerThreadHistoriesAreIsolated)
{
    BranchParams params;
    BranchPredictor bp(params);
    // Thread 0 runs an alternating branch; thread 1 a biased one at the
    // same PC. Isolation means both still learn.
    uint64_t pc = 0xc000;
    int wrong1 = 0;
    for (int i = 0; i < 2000; ++i) {
        bool t0 = (i % 2) == 0;
        bp.predictDirection(pc, 0);
        bp.updateDirection(pc, t0, 0);
        bool pred = bp.predictDirection(pc, 1);
        if (i > 1000)
            wrong1 += pred != true;
        bp.updateDirection(pc, true, 1);
    }
    EXPECT_LT(wrong1, 300);
}

TEST(Config, AblationGroupsAllNamed)
{
    for (int g = 0; g < static_cast<int>(AblationGroup::NumGroups); ++g) {
        auto cfg =
            power10Without(static_cast<AblationGroup>(g));
        EXPECT_NE(cfg.name.find("POWER10-no-"), std::string::npos);
        EXPECT_NE(ablationGroupName(static_cast<AblationGroup>(g)),
                  "invalid");
    }
}

TEST(Config, Power10StructurallyBigger)
{
    auto p9 = power9();
    auto p10 = power10();
    EXPECT_GT(p10.l2.sizeBytes, p9.l2.sizeBytes);
    EXPECT_EQ(p10.l2.sizeBytes, 4u * p9.l2.sizeBytes); // 4x private L2
    EXPECT_EQ(p10.tlbEntries, 4 * p9.tlbEntries);      // 4x MMU
    EXPECT_EQ(p10.robSize, 2 * p9.robSize);            // 2x window
    EXPECT_EQ(p10.fpPorts, 2 * p9.fpPorts);            // 2x SIMD
    EXPECT_EQ(p10.ldPorts, 2 * p9.ldPorts);            // 2x load
    EXPECT_GT(p10.decodeWidth, p9.decodeWidth);        // +33% decode
    EXPECT_TRUE(p10.fusion);
    EXPECT_TRUE(p10.eaTaggedL1);
    EXPECT_FALSE(p9.eaTaggedL1);
    EXPECT_EQ(p10.mmaUnits, 2);
    EXPECT_EQ(p9.mmaUnits, 0);
}

TEST(Config, QueuePartitioning)
{
    auto p10 = power10();
    EXPECT_EQ(p10.ldqPerThread(1), p10.ldqSize);
    EXPECT_EQ(p10.ldqPerThread(8), p10.ldqSizeSmt / 8);
    EXPECT_EQ(p10.stqPerThread(2), p10.stqSizeSmt / 2);
}
