/**
 * @file
 * Property-based sweeps: reference-oracle equivalence for the cache and
 * throttle-ring models, and monotonicity properties of the core model
 * under configuration sweeps.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <memory>
#include <tuple>

#include "common/rng.h"
#include "core/cache.h"
#include "core/core.h"
#include "core/rings.h"
#include "mma/gemm.h"
#include "workloads/spec_profiles.h"
#include "workloads/synthetic.h"

using namespace p10ee;

// ---------------- Cache vs a reference LRU oracle ----------------

namespace {

/** Straightforward per-set LRU built on std::list, as the oracle. */
class LruOracle
{
  public:
    LruOracle(uint64_t sizeBytes, uint32_t ways, uint32_t lineSize)
        : ways_(ways), lineSize_(lineSize)
    {
        uint64_t lines = sizeBytes / lineSize;
        uint32_t sets = static_cast<uint32_t>(lines / ways);
        // Round down to a power of two like the model.
        while (sets & (sets - 1))
            sets &= sets - 1;
        sets_.resize(sets);
    }

    bool
    access(uint64_t addr)
    {
        uint64_t line = addr / lineSize_;
        auto& set = sets_[line % sets_.size()];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == line) {
                set.erase(it);
                set.push_front(line);
                return true;
            }
        }
        set.push_front(line);
        if (set.size() > ways_)
            set.pop_back();
        return false;
    }

  private:
    uint32_t ways_;
    uint32_t lineSize_;
    std::vector<std::list<uint64_t>> sets_;
};

} // namespace

class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CacheGeometry, MatchesLruOracleOnRandomTraffic)
{
    auto [sizeKb, ways, line] = GetParam();
    core::CacheModel model(static_cast<uint64_t>(sizeKb) * 1024,
                           static_cast<uint32_t>(ways),
                           static_cast<uint32_t>(line));
    LruOracle oracle(static_cast<uint64_t>(sizeKb) * 1024,
                     static_cast<uint32_t>(ways),
                     static_cast<uint32_t>(line));
    common::Xoshiro rng(static_cast<uint64_t>(sizeKb * 131 + ways));
    // Mixed locality: a hot region around 2x capacity plus cold tail.
    uint64_t hotSpan = static_cast<uint64_t>(sizeKb) * 2048;
    for (int i = 0; i < 30000; ++i) {
        uint64_t addr = rng.chance(0.8)
            ? rng.below(hotSpan)
            : rng.below(1ull << 30);
        ASSERT_EQ(model.access(addr), oracle.access(addr))
            << "divergence at op " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(4, 2, 64),
                      std::make_tuple(32, 8, 64),
                      std::make_tuple(48, 6, 128),
                      std::make_tuple(256, 4, 64),
                      std::make_tuple(2048, 8, 128)));

// ---------------- ThrottleRing vs a counting oracle ----------------

class RingWidth : public ::testing::TestWithParam<int>
{
};

// Two claim streams per width: one from cycle 0 across four 2^16
// slot-aliasing boundaries, one from just below 2^40 - 2^17 up to near
// the ring's 2^40 limit. Bursts at one cycle fill even a 255-wide
// slot. Halfway through, the ring is saved and restored into a fresh
// ring, which must give the original ring's answers from then on.
TEST_P(RingWidth, NeverExceedsWidthAndFindsEarliestSlot)
{
    int width = GetParam();
    const uint64_t limit = core::ThrottleRing::kCycleLimit;
    const std::pair<uint64_t, uint64_t> streams[] = {
        {0, 5 << 16},
        {limit - (1ull << 17) - 4096, limit - (1ull << 14)},
    };
    for (auto [start, end] : streams) {
        SCOPED_TRACE(start);
        core::ThrottleRing ring(width);
        std::unique_ptr<core::ThrottleRing> restored;
        std::map<uint64_t, int> oracle;
        common::Xoshiro rng(static_cast<uint64_t>(width) * 17 + start);
        const uint64_t mid = start + (end - start) / 2;
        uint64_t base = start;
        for (int i = 0; base < end; ++i) {
            // Mostly creep forward; now and then leap up to 2^13.
            base += rng.chance(0.005) ? rng.below(1u << 13) : rng.below(3);
            if (!restored && base >= mid) {
                // Every later probe targets a cycle >= base.
                common::BinWriter w;
                ring.saveState(w, base);
                restored = std::make_unique<core::ThrottleRing>(width);
                common::BinReader r(w.bytes());
                ASSERT_TRUE(restored->loadState(r).ok());
                ASSERT_EQ(r.remaining(), 0u);
            }
            uint64_t earliest = base + rng.below(8);
            uint64_t burst = rng.chance(0.05)
                ? 1 + rng.below(2 * static_cast<uint64_t>(width))
                : 1;
            for (uint64_t k = 0; k < burst; ++k) {
                uint64_t got = ring.record(earliest);
                if (restored) {
                    ASSERT_EQ(restored->record(earliest), got)
                        << "op " << i;
                }
                // Earliest slot >= earliest with spare capacity per the
                // oracle.
                uint64_t want = earliest;
                while (oracle[want] >= width)
                    ++want;
                ASSERT_EQ(got, want) << "op " << i;
                ++oracle[want];
                ASSERT_LE(oracle[want], width);
            }
        }
        ASSERT_TRUE(restored);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, RingWidth,
                         ::testing::Values(1, 2, 4, 8, 255));

// ---------------- Core-model monotonicity sweeps ----------------

namespace {

double
ipcWith(const core::CoreConfig& cfg, const char* workload)
{
    const auto& prof = workloads::profileByName(workload);
    workloads::SyntheticWorkload src(prof);
    core::CoreModel m(cfg);
    core::RunOptions o;
    o.warmupInstrs = 20000;
    o.measureInstrs = 30000;
    return m.run({&src}, o).ipc();
}

} // namespace

TEST(Monotonic, L1LatencyHurts)
{
    auto cfg = core::power10();
    double prev = 1e9;
    for (uint32_t lat : {3u, 5u, 8u, 12u}) {
        auto c = cfg;
        c.l1d.latency = lat;
        double ipc = ipcWith(c, "perlbench");
        EXPECT_LE(ipc, prev * 1.02) << lat;
        prev = ipc;
    }
}

TEST(Monotonic, MemLatencyHurtsMemoryBound)
{
    auto cfg = core::power10();
    double prev = 1e9;
    for (uint32_t lat : {150u, 300u, 600u}) {
        auto c = cfg;
        c.memLatency = lat;
        double ipc = ipcWith(c, "mcf");
        EXPECT_LE(ipc, prev * 1.02) << lat;
        prev = ipc;
    }
}

TEST(Monotonic, DecodeWidthHelpsHighIpc)
{
    auto cfg = core::power10();
    double prev = 0.0;
    for (int w : {2, 4, 8}) {
        auto c = cfg;
        c.decodeWidth = w;
        c.fetchWidth = w;
        c.dispatchWidth = w;
        double ipc = ipcWith(c, "exchange2");
        EXPECT_GE(ipc, prev * 0.98) << w;
        prev = ipc;
    }
}

TEST(Monotonic, FusionCoverageHelps)
{
    auto cfg = core::power10();
    double prev = 0.0;
    for (double cov : {0.0, 0.35, 0.8}) {
        auto c = cfg;
        c.fusionCoverage = cov;
        double ipc = ipcWith(c, "exchange2");
        EXPECT_GE(ipc, prev * 0.99) << cov;
        prev = ipc;
    }
}

TEST(Monotonic, MispredictPenaltyHurtsBranchy)
{
    auto cfg = core::power10();
    double prev = 1e9;
    for (int pen : {5, 15, 40}) {
        auto c = cfg;
        c.redirectPenalty = pen;
        double ipc = ipcWith(c, "deepsjeng");
        EXPECT_LE(ipc, prev * 1.02) << pen;
        prev = ipc;
    }
}

// ---------------- GEMM random-size property sweep ----------------

class GemmSeed : public ::testing::TestWithParam<int>
{
};

TEST_P(GemmSeed, RandomSizesAllAgreeWithReference)
{
    common::Xoshiro rng(static_cast<uint64_t>(GetParam()) * 2477 + 3);
    int m = 8 * static_cast<int>(1 + rng.below(5));
    int n = 16 * static_cast<int>(1 + rng.below(3));
    int k = 4 * static_cast<int>(1 + rng.below(16));
    mma::GemmDims dims{m, n, k};

    std::vector<float> a(static_cast<size_t>(m) * k);
    std::vector<float> b(static_cast<size_t>(k) * n);
    for (auto& v : a)
        v = static_cast<float>(rng.uniform() - 0.5);
    for (auto& v : b)
        v = static_cast<float>(rng.uniform() - 0.5);
    std::vector<float> want(static_cast<size_t>(m) * n, 0.0f);
    std::vector<float> got = want;
    mma::sgemmRef(a.data(), b.data(), want.data(), dims);
    mma::sgemmMma(a.data(), b.data(), got.data(), dims);
    for (size_t i = 0; i < want.size(); ++i)
        ASSERT_NEAR(got[i], want[i], 1e-3f)
            << m << "x" << n << "x" << k << " at " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GemmSeed, ::testing::Range(0, 12));

// ---------------- Determinism across construction order ----------------

TEST(Determinism, SuiteOrderDoesNotLeakState)
{
    // Running workload A then B must give B the same result as running
    // B alone (models are per-instance; no global state).
    auto runB = []() {
        return ipcWith(core::power10(), "xz");
    };
    ipcWith(core::power10(), "perlbench");
    double afterA = runB();
    double alone = runB();
    EXPECT_DOUBLE_EQ(afterA, alone);
}
