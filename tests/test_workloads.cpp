/**
 * @file
 * Tests for the workload substrate: synthetic generators, kernels,
 * Microprobe, AI models, Chopstix extraction and Tracepoints.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <thread>

#include "common/hash.h"
#include "isa/op.h"
#include "workloads/ai_trace.h"
#include "workloads/chopstix.h"
#include "workloads/kernels.h"
#include "workloads/microprobe.h"
#include "workloads/spec_profiles.h"
#include "workloads/synthetic.h"
#include "workloads/tracepoints.h"

using namespace p10ee;
using namespace p10ee::workloads;

TEST(Synthetic, DeterministicStream)
{
    const auto& prof = profileByName("gcc");
    SyntheticWorkload a(prof), b(prof);
    for (int i = 0; i < 5000; ++i) {
        auto x = a.next();
        auto y = b.next();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(static_cast<int>(x.op), static_cast<int>(y.op));
        ASSERT_EQ(x.addr, y.addr);
        ASSERT_EQ(x.taken, y.taken);
    }
}

TEST(Synthetic, ThreadsShareCodeButNotData)
{
    const auto& prof = profileByName("xz");
    SyntheticWorkload t0(prof, 0), t1(prof, 1);
    uint64_t pc0 = 0, pc1 = 0;
    uint64_t addr0 = 0, addr1 = 0;
    for (int i = 0; i < 2000; ++i) {
        auto a = t0.next();
        auto b = t1.next();
        pc0 = std::max(pc0, a.pc);
        pc1 = std::max(pc1, b.pc);
        if (isa::isLoad(a.op))
            addr0 = std::max(addr0, a.addr);
        if (isa::isLoad(b.op))
            addr1 = std::max(addr1, b.addr);
    }
    // Same text segment range; disjoint (shifted) data ranges.
    EXPECT_LT(pc0, 0x10000000ull);
    EXPECT_LT(pc1, 0x10000000ull);
    EXPECT_LT(addr0, 0x50000000ull);
    EXPECT_GT(addr1, 0x40000000ull);
}

namespace {

/** Absorb every field of @p in the core consumes. */
void
hashInstr(common::Fnv1a& h, const isa::TraceInstr& in)
{
    h.u64(in.pc).u64(static_cast<uint64_t>(in.op)).u64(in.dest);
    for (uint16_t s : in.src)
        h.u64(s);
    h.u64(in.addr).u64(in.size).u64(in.taken).u64(in.target);
    h.u64(in.memTier).u64(in.prefixed);
}

/** FNV-1a over the first @p n instructions of @p src. */
uint64_t
streamHash(InstrSource& src, int n)
{
    common::Fnv1a h;
    for (int i = 0; i < n; ++i)
        hashInstr(h, src.next());
    return h.digest();
}

std::vector<WorkloadProfile>
allProfiles()
{
    std::vector<WorkloadProfile> all = specint2017();
    for (const auto& p : extraGroups())
        all.push_back(p);
    return all;
}

} // namespace

TEST(Synthetic, StreamsPinnedForEveryProfile)
{
    // Every report, checkpoint and shard-cache entry over a synthetic
    // workload follows from these streams: a change to the build's RNG
    // draw order, the template layout or the walker moves a digest.
    struct Pin
    {
        const char* name;
        uint64_t t0, t3;
    };
    static constexpr Pin kPins[] = {
        {"perlbench", 0x372917eaeee38677ull, 0xa79d6d28e4e9b2b5ull},
        {"gcc", 0x0ee46071d01f3e9aull, 0x3a9580b1f36b9f78ull},
        {"mcf", 0x4425d27684ba55a5ull, 0xbc3c908ab570c301ull},
        {"omnetpp", 0x946db025925b8937ull, 0xf824f31576142fd7ull},
        {"xalancbmk", 0xd71fb09fd012d994ull, 0x3f8d5b1141e7e7b4ull},
        {"x264", 0x6f10df02b9113e20ull, 0xebfd634374973a9full},
        {"deepsjeng", 0x9259d3d1cea198c0ull, 0x46f340b61e225b68ull},
        {"leela", 0xbd22f2030466859aull, 0x0560b06aef288ffeull},
        {"exchange2", 0xf139401ed87f98a9ull, 0x17562ac21859c3f7ull},
        {"xz", 0x53300a83ff0dbfe2ull, 0x4fd205ce2112f6b0ull},
        {"commercial", 0x148f6eef1b8bca6dull, 0x1ad167b4c6247ecaull},
        {"python_interp", 0xab5a444e325d64cfull, 0x487203f181c14a94ull},
        {"ml_analytics", 0x23187ac2d9fbe3daull, 0x879ac294cad27523ull},
    };
    const std::vector<WorkloadProfile> all = allProfiles();
    ASSERT_EQ(all.size(), std::size(kPins));
    for (size_t i = 0; i < all.size(); ++i) {
        ASSERT_EQ(all[i].name, kPins[i].name);
        SyntheticWorkload t0(all[i], 0), t3(all[i], 3);
        EXPECT_EQ(streamHash(t0, 50000), kPins[i].t0) << kPins[i].name;
        EXPECT_EQ(streamHash(t3, 50000), kPins[i].t3) << kPins[i].name;
    }
}

TEST(Synthetic, SharedProgramLeaksNoWalkerState)
{
    // Four SMT copies of one profile share one program; stepping them
    // round-robin must give each exactly the stream it gives alone.
    const auto& prof = profileByName("commercial");
    constexpr int kThreads = 4;
    constexpr int kN = 20000;
    uint64_t alone[kThreads];
    for (int t = 0; t < kThreads; ++t) {
        SyntheticWorkload w(prof, t);
        alone[t] = streamHash(w, kN);
    }

    std::vector<std::unique_ptr<SyntheticWorkload>> walkers;
    for (int t = 0; t < kThreads; ++t)
        walkers.push_back(std::make_unique<SyntheticWorkload>(prof, t));
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(&walkers[static_cast<size_t>(t)]->program(),
                  &walkers[0]->program());
    common::Fnv1a h[kThreads];
    for (int i = 0; i < kN; ++i)
        for (int t = 0; t < kThreads; ++t)
            hashInstr(h[t], walkers[static_cast<size_t>(t)]->next());
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(h[t].digest(), alone[t]) << "thread " << t;
}

TEST(Synthetic, ConcurrentWalkersShareOneProgram)
{
    // Walkers built and stepped on different host threads (a sweep
    // pool) share the read-only program; each stream matches its
    // single-threaded reference.
    const auto& prof = profileByName("gcc");
    constexpr int kThreads = 8;
    constexpr int kN = 5000;
    uint64_t expect[kThreads];
    for (int t = 0; t < kThreads; ++t) {
        SyntheticWorkload w(prof, t % 4);
        expect[t] = streamHash(w, kN);
    }
    SyntheticWorkload pin(prof);
    uint64_t got[kThreads] = {};
    const SyntheticProgram* programs[kThreads] = {};
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            SyntheticWorkload w(prof, t % 4);
            programs[t] = &w.program();
            got[t] = streamHash(w, kN);
        });
    for (auto& th : pool)
        th.join();
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(got[t], expect[t]) << "thread " << t;
        EXPECT_EQ(programs[t], &pin.program()) << "thread " << t;
    }
}

class ProfileMix : public ::testing::TestWithParam<const char*>
{
};

TEST_P(ProfileMix, DynamicMixTracksProfile)
{
    const auto& prof = profileByName(GetParam());
    SyntheticWorkload w(prof);
    constexpr int kN = 60000;
    std::map<isa::OpClass, int> counts;
    for (int i = 0; i < kN; ++i)
        ++counts[w.next().op];

    double loads = (counts[isa::OpClass::Load] +
                    counts[isa::OpClass::Load32B]) /
                   static_cast<double>(kN);
    double stores = counts[isa::OpClass::Store] /
                    static_cast<double>(kN);
    double branches = (counts[isa::OpClass::Branch] +
                       counts[isa::OpClass::BranchIndirect]) /
                      static_cast<double>(kN);
    EXPECT_NEAR(loads, prof.loadFrac, 0.09) << prof.name;
    EXPECT_NEAR(stores, prof.storeFrac, 0.06) << prof.name;
    EXPECT_NEAR(branches, prof.branchFrac, 0.09) << prof.name;
}

TEST_P(ProfileMix, AddressesStayInTierRanges)
{
    const auto& prof = profileByName(GetParam());
    SyntheticWorkload w(prof);
    RegionSizes regions;
    for (int i = 0; i < 20000; ++i) {
        auto in = w.next();
        if (!isa::isLoad(in.op) && !isa::isStore(in.op))
            continue;
        ASSERT_NE(in.memTier, 0xff);
        uint64_t off = in.addr - 0x10000000ull;
        switch (in.memTier) {
          case 0: ASSERT_LT(off, regions.hot); break;
          case 1:
            ASSERT_GE(off, 0x200000u);
            ASSERT_LT(off, 0x200000u + regions.warm);
            break;
          case 2:
            ASSERT_GE(off, 0x2000000u);
            ASSERT_LT(off, 0x2000000u + regions.cold);
            break;
          default:
            ASSERT_GE(off, 0x8000000u);
            ASSERT_LT(off, 0x8000000u + regions.huge);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Suite, ProfileMix,
                         ::testing::Values("perlbench", "gcc", "mcf",
                                           "omnetpp", "xalancbmk", "x264",
                                           "deepsjeng", "leela",
                                           "exchange2", "xz",
                                           "commercial", "python_interp",
                                           "ml_analytics"));

namespace {

/** Save @p w's walker state. */
std::vector<uint8_t>
walkerState(const SyntheticWorkload& w)
{
    common::BinWriter bw;
    w.saveState(bw);
    return bw.takeBytes();
}

} // namespace

TEST(SyntheticCkpt, RestoreIntoOtherProfileIsAnError)
{
    SyntheticWorkload gcc(profileByName("gcc"));
    for (int i = 0; i < 10000; ++i)
        gcc.next();
    const std::vector<uint8_t> state = walkerState(gcc);

    SyntheticWorkload mcf(profileByName("mcf")), ref(profileByName("mcf"));
    common::BinReader r(state);
    common::Status st = mcf.loadState(r);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, common::ErrorCode::InvalidArgument);
    // A refused restore leaves the walker untouched.
    EXPECT_EQ(streamHash(mcf, 5000), streamHash(ref, 5000));
}

TEST(SyntheticCkpt, CursorAtBlockEndIsAnError)
{
    // Count the instructions of block 0: the walker starts there and
    // leaves on its terminating branch.
    const auto& prof = profileByName("gcc");
    SyntheticWorkload probe(prof);
    uint64_t len = 1;
    while (!isa::isBranch(probe.next().op))
        ++len;

    // State layout: RNG (seed + 4 words), u32 block, u64 instruction.
    std::vector<uint8_t> state = walkerState(SyntheticWorkload(prof));
    auto setInstr = [&state](uint64_t v) {
        constexpr size_t kInstrOff = 5 * 8 + 4;
        for (size_t b = 0; b < 8; ++b)
            state[kInstrOff + b] = static_cast<uint8_t>(v >> (8 * b));
    };
    setInstr(len);

    SyntheticWorkload w(prof);
    common::BinReader r(state);
    common::Status st = w.loadState(r);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, common::ErrorCode::InvalidArgument);

    // One less is the block's branch, which is in range.
    setInstr(len - 1);
    common::BinReader ok(state);
    EXPECT_TRUE(w.loadState(ok).ok());
    EXPECT_TRUE(isa::isBranch(w.next().op));
}

TEST(SpecProfiles, TenBenchmarks)
{
    EXPECT_EQ(specint2017().size(), 10u);
    EXPECT_EQ(extraGroups().size(), 3u);
}

TEST(SpecProfiles, LookupByName)
{
    EXPECT_EQ(profileByName("mcf").name, "mcf");
    EXPECT_EQ(profileByName("commercial").name, "commercial");
}

TEST(ReplaySourceTest, LoopsForever)
{
    std::vector<isa::TraceInstr> loop(3);
    loop[0].pc = 0x100;
    loop[1].pc = 0x104;
    loop[2].pc = 0x108;
    ReplaySource src("t", loop);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(src.next().pc, 0x100u + 4u * (i % 3));
}

TEST(Kernels, DaxpyStreamsThroughFootprint)
{
    auto k = makeDaxpy(64 * 1024);
    uint64_t lastX = 0;
    bool sawWrap = false;
    for (int i = 0; i < 50000; ++i) {
        auto in = k->next();
        if (isa::isLoad(in.op) && in.addr >= 0x4000000 &&
            in.addr < 0x5000000) {
            if (in.addr < lastX)
                sawWrap = true;
            lastX = in.addr;
        }
    }
    EXPECT_TRUE(sawWrap); // cursor wraps at the footprint
}

TEST(Kernels, PointerChaseIsSerial)
{
    auto k = makePointerChase();
    auto first = k->next();
    ASSERT_TRUE(isa::isLoad(first.op));
    // The load consumes its own previous result.
    EXPECT_EQ(first.src[0], first.dest);
}

TEST(Kernels, DdLoopDependencyStructure)
{
    auto dd0 = makeDdLoop(0, false);
    auto dd1 = makeDdLoop(1, false);
    // DD0: a single serial chain register; DD1: two alternating chains.
    std::set<uint16_t> dests0, dests1;
    for (int i = 0; i < 40; ++i) {
        auto a = dd0->next();
        auto b = dd1->next();
        if (a.op == isa::OpClass::IntAlu && a.dest >= 8)
            dests0.insert(a.dest);
        if (b.op == isa::OpClass::IntAlu && b.dest >= 8)
            dests1.insert(b.dest);
    }
    EXPECT_LT(dests0.size(), dests1.size());
}

TEST(Kernels, DdLoopToggleAxis)
{
    auto zero = makeDdLoop(0, false);
    auto random = makeDdLoop(0, true);
    EXPECT_LT(zero->next().toggle, 0.1f);
    EXPECT_GT(random->next().toggle, 0.4f);
}

TEST(Microprobe, SuiteCoversTheGrid)
{
    auto suite = fig13Suite();
    EXPECT_EQ(suite.size(), 15u); // 3 SMT x (4 DD cases + 1 SPEC)
    int spec = 0;
    for (const auto& tc : suite)
        spec += tc.specSuite;
    EXPECT_EQ(spec, 3);
}

TEST(Microprobe, CaseSourcesMatchNames)
{
    auto suite = fig13Suite();
    for (const auto& tc : suite) {
        auto src = makeCaseSource(tc, 0);
        ASSERT_NE(src, nullptr);
        if (!tc.specSuite)
            EXPECT_NE(src->name().find("dd"), std::string::npos);
    }
}

TEST(AiModels, ResNetFlopsInRange)
{
    auto m = resnet50(1);
    double gflops = static_cast<double>(totalGemmFlops(m)) / 1e9;
    // ResNet-50 inference is ~4 GFLOPs/image (2*MACs); the im2col GEMM
    // inventory overcounts somewhat (shortcut projections and patch
    // duplication), so accept the 3-9 GFLOP band.
    EXPECT_GT(gflops, 3.0);
    EXPECT_LT(gflops, 9.0);
}

TEST(AiModels, ResNetScalesWithBatch)
{
    EXPECT_EQ(totalGemmFlops(resnet50(100)),
              100u * totalGemmFlops(resnet50(1)));
}

TEST(AiModels, BertLargeFlopsInRange)
{
    auto m = bertLarge(1, 384);
    double gflops = static_cast<double>(totalGemmFlops(m)) / 1e9;
    // BERT-Large at seq 384 is ~200-260 GFLOPs per sequence.
    EXPECT_GT(gflops, 150.0);
    EXPECT_LT(gflops, 320.0);
}

TEST(AiModels, BertHasLargerNonGemmDataShare)
{
    // The paper attributes BERT's lower no-MMA speedup to data loading;
    // its preprocessing profile must be more memory-weighted than
    // ResNet's.
    auto r = resnet50();
    auto b = bertLarge();
    double rMem = r.nonGemmProfile.wCold + r.nonGemmProfile.wHuge;
    double bMem = b.nonGemmProfile.wCold + b.nonGemmProfile.wHuge;
    EXPECT_GT(bMem, rMem);
}

TEST(Chopstix, CoverageAndWeights)
{
    auto result = extractProxies(profileByName("xz"), 200000, 10);
    EXPECT_GT(result.coverage, 0.2);
    EXPECT_LE(result.coverage, 1.0);
    ASSERT_FALSE(result.proxies.empty());
    // Ranked by weight, descending.
    for (size_t i = 1; i < result.proxies.size(); ++i)
        EXPECT_LE(result.proxies[i].weight,
                  result.proxies[i - 1].weight);
}

TEST(Chopstix, ConcentratedBenchmarksCoverMore)
{
    // xz concentrates execution (paper: 99% coverage) while gcc spreads
    // it over many functions (41%).
    auto xz = extractProxies(profileByName("xz"), 150000, 10);
    auto gcc = extractProxies(profileByName("gcc"), 150000, 10);
    EXPECT_GT(xz.coverage, gcc.coverage);
}

TEST(Chopstix, ProxiesAreEndlessLoops)
{
    auto result = extractProxies(profileByName("leela"), 100000, 3);
    for (const auto& proxy : result.proxies) {
        ASSERT_FALSE(proxy.loop.empty());
        const auto& tail = proxy.loop.back();
        EXPECT_TRUE(isa::isBranch(tail.op));
        EXPECT_TRUE(tail.taken);
        EXPECT_EQ(tail.target, proxy.loop.front().pc);
        auto src = makeProxySource(proxy);
        // Replays deterministically across the loop boundary.
        for (size_t i = 0; i < proxy.loop.size() * 2; ++i)
            ASSERT_EQ(src->next().pc,
                      proxy.loop[i % proxy.loop.size()].pc);
    }
}

namespace {

std::vector<Epoch>
syntheticEpochs()
{
    // Three phases with distinct CPI and BBVs; phase weights 50/30/20.
    std::vector<Epoch> epochs;
    common::Xoshiro r(31);
    for (int i = 0; i < 100; ++i) {
        Epoch e;
        int phase = i < 50 ? 0 : i < 80 ? 1 : 2;
        double base[] = {0.8, 2.0, 4.5};
        e.cpi = base[phase] + r.uniform() * 0.1;
        e.metrics = {base[phase] * 2.0, 10.0 - base[phase]};
        e.bbv = {phase == 0 ? 1.0 : 0.0, phase == 1 ? 1.0 : 0.0,
                 phase == 2 ? 1.0 : 0.0};
        epochs.push_back(e);
    }
    return epochs;
}

} // namespace

TEST(Tracepoints, WeightsSumToOne)
{
    auto epochs = syntheticEpochs();
    auto sel = tracepointsSelect(epochs, 10, 2);
    double sum = 0.0;
    for (double w : sel.weights)
        sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Tracepoints, SelectionMatchesAggregateCpi)
{
    auto epochs = syntheticEpochs();
    auto sel = tracepointsSelect(epochs, 10, 2);
    EXPECT_NEAR(selectionCpi(epochs, sel), aggregateCpi(epochs), 0.1);
}

TEST(Tracepoints, MatchesAuxMetricsToo)
{
    auto epochs = syntheticEpochs();
    auto sel = tracepointsSelect(epochs, 10, 2);
    for (size_t m = 0; m < 2; ++m)
        EXPECT_NEAR(selectionMetric(epochs, sel, m),
                    aggregateMetric(epochs, m), 0.3);
}

TEST(Simpoint, ClusterWeightsSumToOne)
{
    auto epochs = syntheticEpochs();
    auto sel = simpointSelect(epochs, 3);
    double sum = 0.0;
    for (double w : sel.weights)
        sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_LE(sel.epochs.size(), 3u);
}

TEST(Simpoint, RecoversPhaseStructure)
{
    auto epochs = syntheticEpochs();
    auto sel = simpointSelect(epochs, 3);
    EXPECT_NEAR(selectionCpi(epochs, sel), aggregateCpi(epochs), 0.2);
}

TEST(Tracepoints, BeatsSimpointWhenBbvsAreMisleading)
{
    // Same basic blocks, different CPI per phase (the paper's argument:
    // BBVs miss architectural behaviour like cache misses).
    std::vector<Epoch> epochs;
    common::Xoshiro r(37);
    for (int i = 0; i < 90; ++i) {
        Epoch e;
        int phase = (i / 30) % 3;
        double base[] = {0.7, 2.4, 5.2};
        e.cpi = base[phase] + r.uniform() * 0.05;
        e.metrics = {e.cpi};
        e.bbv = {1.0, 0.5, 0.25}; // identical BBV everywhere
        epochs.push_back(e);
    }
    auto tp = tracepointsSelect(epochs, 12, 1);
    auto sp = simpointSelect(epochs, 3);
    double agg = aggregateCpi(epochs);
    double tpErr = std::abs(selectionCpi(epochs, tp) - agg);
    double spErr = std::abs(selectionCpi(epochs, sp) - agg);
    EXPECT_LT(tpErr, spErr + 1e-9);
}
