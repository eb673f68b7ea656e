/**
 * @file
 * Unit tests for the common substrate: RNG, stats, histograms, matrix
 * algebra, table formatting, the weak shared-object cache, the sealed
 * container layout every persisted file uses.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/sealed_file.h"
#include "common/serialize.h"
#include "common/shared_cache.h"
#include "common/stats.h"
#include "common/table.h"

using namespace p10ee::common;

TEST(Xoshiro, DeterministicForSeed)
{
    Xoshiro a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiverge)
{
    Xoshiro a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Xoshiro, UniformInUnitInterval)
{
    Xoshiro r(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Xoshiro, BelowRespectsBound)
{
    Xoshiro r(11);
    for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(r.below(bound), bound);
    }
}

TEST(Xoshiro, ChanceExtremes)
{
    Xoshiro r(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Xoshiro, ChanceMatchesProbability)
{
    Xoshiro r(5);
    int hits = 0;
    for (int i = 0; i < 50000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(Xoshiro, GaussMoments)
{
    Xoshiro r(9);
    RunningStat s;
    for (int i = 0; i < 50000; ++i)
        s.record(r.gauss());
    EXPECT_NEAR(s.mean(), 0.0, 0.03);
    EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Xoshiro, ZipfWithinRangeAndSkewed)
{
    Xoshiro r(13);
    uint64_t low = 0;
    for (int i = 0; i < 20000; ++i) {
        uint64_t v = r.zipf(1000);
        ASSERT_LT(v, 1000u);
        low += v < 100;
    }
    // A Zipf-like draw concentrates mass near the origin.
    EXPECT_GT(low, 10000u);
}

TEST(StatRegistry, AddAndGet)
{
    StatRegistry s;
    EXPECT_EQ(s.get("x"), 0u);
    s.add("x");
    s.add("x", 4);
    EXPECT_EQ(s.get("x"), 5u);
}

TEST(StatRegistry, DeltaSubtracts)
{
    StatRegistry s;
    s.add("a", 10);
    auto before = s.snapshot();
    s.add("a", 5);
    s.add("b", 3);
    auto d = StatRegistry::delta(before, s.snapshot());
    EXPECT_EQ(d.at("a"), 5u);
    EXPECT_EQ(d.at("b"), 3u);
}

TEST(StatRegistry, ClearKeepsNames)
{
    StatRegistry s;
    s.add("a", 2);
    s.clear();
    EXPECT_EQ(s.get("a"), 0u);
    EXPECT_EQ(s.names().size(), 1u);
}

TEST(StatRegistry, NamesSorted)
{
    StatRegistry s;
    s.add("zeta");
    s.add("alpha");
    auto names = s.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "zeta");
}

TEST(Histogram, BinningAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.record(0.5);
    h.record(9.5);
    h.record(-5.0); // clamps to bin 0
    h.record(50.0); // clamps to last bin
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(9), 2u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, PercentileMedian)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.record(i + 0.5);
    EXPECT_NEAR(h.percentile(0.5).value(), 50.0, 1.5);
    EXPECT_NEAR(h.percentile(0.9).value(), 90.0, 1.5);
}

TEST(Histogram, PercentileOfEmptyIsRecoverableError)
{
    Histogram h(0.0, 100.0, 10);
    auto p = h.percentile(0.5);
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.error().code, ErrorCode::InvalidArgument);
    // A report generator can fall back instead of crashing.
    EXPECT_DOUBLE_EQ(p.valueOr(0.0), 0.0);
}

TEST(StatRegistry, InternedIdPathAgreesWithStringPath)
{
    StatRegistry s;
    StatId fast = s.id("issue.alu");
    for (int i = 0; i < 100; ++i)
        s.add(fast);
    s.add("issue.alu", 5);
    EXPECT_EQ(s.get(fast), 105u);
    EXPECT_EQ(s.get("issue.alu"), 105u);
    EXPECT_EQ(s.snapshot().at("issue.alu"), 105u);
    // Re-interning yields the same handle.
    EXPECT_EQ(s.id("issue.alu").v, fast.v);
}

TEST(StatRegistry, InternedIdSurvivesClear)
{
    StatRegistry s;
    StatId sid = s.id("x");
    s.add(sid, 7);
    s.clear();
    EXPECT_EQ(s.get(sid), 0u);
    s.add(sid, 3);
    EXPECT_EQ(s.get("x"), 3u);
}

TEST(Histogram, BinCenter)
{
    Histogram h(0.0, 10.0, 10);
    EXPECT_DOUBLE_EQ(h.binCenter(0), 0.5);
    EXPECT_DOUBLE_EQ(h.binCenter(9), 9.5);
}

TEST(RunningStat, Moments)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.record(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Matrix, TransposeTimes)
{
    Matrix x(3, 2);
    // x = [[1,2],[3,4],[5,6]]
    x.at(0, 0) = 1; x.at(0, 1) = 2;
    x.at(1, 0) = 3; x.at(1, 1) = 4;
    x.at(2, 0) = 5; x.at(2, 1) = 6;
    Matrix xtx = x.transposeTimes(x);
    EXPECT_DOUBLE_EQ(xtx.at(0, 0), 35.0);
    EXPECT_DOUBLE_EQ(xtx.at(0, 1), 44.0);
    EXPECT_DOUBLE_EQ(xtx.at(1, 0), 44.0);
    EXPECT_DOUBLE_EQ(xtx.at(1, 1), 56.0);
}

TEST(Matrix, TimesVec)
{
    Matrix x(2, 3);
    x.at(0, 0) = 1; x.at(0, 1) = 2; x.at(0, 2) = 3;
    x.at(1, 0) = 4; x.at(1, 1) = 5; x.at(1, 2) = 6;
    auto y = x.timesVec({1.0, 1.0, 1.0});
    EXPECT_DOUBLE_EQ(y[0], 6.0);
    EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Matrix, SolveSpdIdentity)
{
    Matrix a(3, 3);
    for (int i = 0; i < 3; ++i)
        a.at(i, i) = 1.0;
    auto x = solveSpd(a, {1.0, 2.0, 3.0});
    EXPECT_NEAR(x[0], 1.0, 1e-6);
    EXPECT_NEAR(x[1], 2.0, 1e-6);
    EXPECT_NEAR(x[2], 3.0, 1e-6);
}

TEST(Matrix, LeastSquaresRecoversCoefficients)
{
    // y = 3*x0 - 2*x1 + noiseless data.
    Matrix x(50, 2);
    std::vector<double> y(50);
    Xoshiro r(17);
    for (int i = 0; i < 50; ++i) {
        x.at(i, 0) = r.uniform();
        x.at(i, 1) = r.uniform();
        y[i] = 3.0 * x.at(i, 0) - 2.0 * x.at(i, 1);
    }
    auto w = leastSquares(x, y);
    EXPECT_NEAR(w[0], 3.0, 1e-3);
    EXPECT_NEAR(w[1], -2.0, 1e-3);
}

TEST(Matrix, NnlsWeightsNonNegative)
{
    // The true model has a negative coefficient; NNLS must clamp it.
    Matrix x(40, 2);
    std::vector<double> y(40);
    Xoshiro r(19);
    for (int i = 0; i < 40; ++i) {
        x.at(i, 0) = r.uniform();
        x.at(i, 1) = r.uniform();
        y[i] = 2.0 * x.at(i, 0) - 1.0 * x.at(i, 1);
    }
    auto w = nonNegativeLeastSquares(x, y);
    for (double v : w)
        EXPECT_GE(v, 0.0);
    EXPECT_NEAR(w[1], 0.0, 1e-9);
}

TEST(Matrix, NnlsRecoversPositiveModel)
{
    Matrix x(60, 3);
    std::vector<double> y(60);
    Xoshiro r(23);
    for (int i = 0; i < 60; ++i) {
        for (int j = 0; j < 3; ++j)
            x.at(i, static_cast<size_t>(j)) = r.uniform();
        y[i] = 1.0 * x.at(i, 0) + 0.5 * x.at(i, 1) + 2.0 * x.at(i, 2);
    }
    auto w = nonNegativeLeastSquares(x, y, 500);
    EXPECT_NEAR(w[0], 1.0, 0.02);
    EXPECT_NEAR(w[1], 0.5, 0.02);
    EXPECT_NEAR(w[2], 2.0, 0.02);
}

TEST(TableFormat, Helpers)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmtX(2.6), "2.60x");
    EXPECT_EQ(fmtPct(0.322), "32.2%");
}

TEST(SharedCache, OneObjectPerKeyWhileHeld)
{
    SharedCache<std::string, int> cache;
    int builds = 0;
    auto build = [&builds] {
        ++builds;
        return std::make_shared<const int>(7);
    };
    std::shared_ptr<const int> a = cache.getOrBuild("k", build);
    std::shared_ptr<const int> b = cache.getOrBuild("k", build);
    EXPECT_EQ(a, b);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(cache.find("k"), a);
    EXPECT_EQ(cache.find("other"), nullptr);
}

TEST(SharedCache, RebuiltAfterLastHolderDrops)
{
    SharedCache<std::string, int> cache;
    int builds = 0;
    auto build = [&builds] {
        ++builds;
        return std::make_shared<const int>(builds);
    };
    std::shared_ptr<const int> a = cache.getOrBuild("k", build);
    std::shared_ptr<const int> held = a;
    a.reset();
    EXPECT_EQ(*cache.getOrBuild("k", build), 1); // still held
    held.reset();
    EXPECT_EQ(cache.find("k"), nullptr);
    EXPECT_EQ(*cache.getOrBuild("k", build), 2);
    EXPECT_EQ(builds, 2);
}

TEST(SharedCache, ExpiredKeysArePruned)
{
    SharedCache<int, int> cache;
    std::shared_ptr<const int> pinned =
        cache.getOrBuild(-1, [] { return std::make_shared<const int>(0); });
    for (int k = 0; k < 1000; ++k) {
        std::shared_ptr<const int> v = cache.getOrBuild(
            k, [k] { return std::make_shared<const int>(k); });
        ASSERT_EQ(*v, k);
        // The held key, this key, and at most the previous (expired,
        // not yet pruned) one.
        ASSERT_LE(cache.size(), 3u);
    }
    EXPECT_EQ(cache.find(-1), pinned);
}

TEST(SharedCache, ConcurrentCallersShareOneObject)
{
    SharedCache<std::string, std::vector<int>> cache;
    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::atomic<int> builds{0};
    std::shared_ptr<const std::vector<int>> got[kThreads];
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            }
            got[t] = cache.getOrBuild("k", [&builds] {
                builds.fetch_add(1);
                return std::make_shared<const std::vector<int>>(
                    std::vector<int>{1, 2, 3});
            });
        });
    for (auto& th : pool)
        th.join();
    EXPECT_GE(builds.load(), 1);
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(got[t], nullptr);
        EXPECT_EQ(*got[t], (std::vector<int>{1, 2, 3}));
        // Every caller still holds its result, so the first publisher
        // won and all share one object.
        EXPECT_EQ(got[t], got[0]);
    }
}

// ---- Sealed files (hostile input; runs under ASan/UBSan in CI) ----

namespace {

const SealedFile kTestFile("test file", "P10TEST!",
                           {{"format", 3}, {"state-schema", 5}});

/** Header bytes of kTestFile: magic plus two version words. */
constexpr size_t kTestHeader = 8 + 2 * 4;

std::vector<uint8_t>
sealedSample()
{
    return kTestFile.seal([](BinWriter& w) {
        w.str("body");
        w.u64(0x0123456789abcdefull);
    });
}

} // namespace

TEST(SealedFile, EveryPrefixAndEveryByteFlipIsRejected)
{
    const std::vector<uint8_t> bytes = sealedSample();
    ASSERT_TRUE(kTestFile.open(bytes.data(), bytes.size()).ok());
    for (size_t len = 0; len < bytes.size(); ++len) {
        auto r = kTestFile.open(bytes.data(), len);
        ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes";
        EXPECT_EQ(r.error().code, ErrorCode::InvalidArgument);
    }
    // The checks run in layout order, so a flipped byte is reported by
    // the first check that covers it.
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
        std::vector<uint8_t> copy = bytes;
        copy[pos] ^= 0xFF;
        auto r = kTestFile.open(copy.data(), copy.size());
        ASSERT_FALSE(r.ok()) << "flip at byte " << pos;
        EXPECT_EQ(r.error().code, ErrorCode::InvalidArgument);
        const char* want = pos < 8             ? "bad magic"
                           : pos < kTestHeader ? "version"
                                               : "checksum mismatch";
        EXPECT_NE(r.error().message.find(want), std::string::npos)
            << "flip at byte " << pos << ": " << r.error().message;
    }
}

TEST(SealedFile, HeaderMismatchesAreNamedBeforeTheChecksum)
{
    // Patching the header breaks the checksum too; the magic or the
    // version is what the reader must be told about.
    const std::pair<size_t, const char*> cases[] = {
        {3, "not a p10ee test file (bad magic)"},
        {8, "unsupported test file format version 99 (expected 3)"},
        {12, "unsupported test file state-schema version 99 (expected 5)"}};
    for (const auto& [pos, want] : cases) {
        std::vector<uint8_t> bytes = sealedSample();
        bytes[pos] = 99;
        auto r = kTestFile.open(bytes.data(), bytes.size());
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().message, want);
    }
}

TEST(SealedFile, BodyReaderStopsBeforeTheTrailer)
{
    const std::vector<uint8_t> bytes = sealedSample();
    auto r = kTestFile.open(bytes.data(), bytes.size());
    ASSERT_TRUE(r.ok()) << r.error().str();
    BinReader& body = r.value();
    EXPECT_EQ(body.str(), "body");
    EXPECT_EQ(body.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(body.remaining(), 0u);
    EXPECT_TRUE(body.ok());
    (void)body.u8();
    EXPECT_TRUE(body.failed());
}

TEST(SealedFile, EmptyBodyRoundTrips)
{
    const std::vector<uint8_t> bytes = kTestFile.seal([](BinWriter&) {});
    EXPECT_EQ(bytes.size(), kTestHeader + 8);
    auto r = kTestFile.open(bytes.data(), bytes.size());
    ASSERT_TRUE(r.ok()) << r.error().str();
    EXPECT_EQ(r.value().remaining(), 0u);
}

TEST(SealedFile, UnopenablePathsAreNotFound)
{
    // NotFound for writes as for reads: the CLIs map it to a usage
    // error (exit 2).
    const std::string missing = "/nonexistent-dir/p10ee/f.bin";
    Status w = kTestFile.write(missing, sealedSample());
    ASSERT_FALSE(w.ok());
    EXPECT_EQ(w.error().code, ErrorCode::NotFound);
    auto r = kTestFile.read(missing);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::NotFound);
    // A directory opens like a file but is not one; a device has no
    // end. Both are NotFound naming the path, never a stream exception
    // or an unbounded read.
    for (const std::string path :
         {std::filesystem::temp_directory_path().string(),
          std::string("/dev/null")}) {
        if (!std::filesystem::exists(path))
            continue;
        auto d = kTestFile.read(path);
        ASSERT_FALSE(d.ok()) << path;
        EXPECT_EQ(d.error().code, ErrorCode::NotFound) << path;
        EXPECT_NE(d.error().message.find(path), std::string::npos)
            << d.error().message;
    }
}
