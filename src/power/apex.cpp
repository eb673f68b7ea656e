#include "power/apex.h"

#include <array>
#include <chrono>
#include <cmath>

#include "common/assert.h"
#include "power/cycle_stats.h"

namespace p10ee::power {

namespace {

/** Wall seconds of the fastest of @p runs calls of @p fn. */
template <typename Fn>
double
bestSeconds(int runs, Fn&& fn)
{
    using Clock = std::chrono::steady_clock;
    double best = 0.0;
    for (int i = 0; i < runs; ++i) {
        const auto t0 = Clock::now();
        fn();
        const double s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (i == 0 || s < best)
            best = s;
    }
    return best;
}

} // namespace

ApexExtractor::ApexExtractor(const EnergyModel& model,
                             uint64_t intervalCycles)
    : model_(model), interval_(intervalCycles)
{
    P10_ASSERT(intervalCycles > 0, "apex interval");
}

std::vector<float>
ApexExtractor::intervalPower(const core::RunResult& run) const
{
    P10_ASSERT(!run.timings.empty(), "apex needs the event trace");
    uint64_t cycles = run.cycles ? run.cycles : 1;
    size_t nIntervals =
        static_cast<size_t>((cycles + interval_ - 1) / interval_);

    // One pass: bucket the switching-counter sums per interval — the
    // LFSR-counter read-out.
    std::vector<std::array<double, cyc::kNumCycleStats>> sums(
        nIntervals, std::array<double, cyc::kNumCycleStats>{});
    for (const auto& t : run.timings) {
        size_t i = std::min<size_t>(t.issue / interval_, nIntervals - 1);
        cyc::addInstrEvents(t, sums[i].data());
    }

    std::vector<float> out(nIntervals, 0.0f);
    for (size_t i = 0; i < nIntervals; ++i) {
        uint64_t start = static_cast<uint64_t>(i) * interval_;
        uint64_t len = std::min<uint64_t>(interval_, cycles - start);
        out[i] = static_cast<float>(
            model_.windowPowerPj(run, sums[i].data(), len));
    }
    return out;
}

ApexComparison
compareApexVsDetailed(const EnergyModel& model, const core::RunResult& run,
                      uint64_t intervalCycles)
{
    ApexComparison cmp;
    // Each path's time is the fastest of several calls. One APEX call
    // takes a few milliseconds at most, so a single sample is at the
    // mercy of one preemption (or of the detailed path's first touch of
    // its per-cycle vector); the minimum is the cost of the work itself.
    constexpr int kTimedRuns = 5;
    ApexExtractor apex(model, intervalCycles);
    std::vector<float> detailed;
    std::vector<float> fast;
    cmp.detailedSeconds = bestSeconds(kTimedRuns, [&] {
        detailed = model.perCyclePower(run);
    });
    cmp.apexSeconds = bestSeconds(kTimedRuns, [&] {
        fast = apex.intervalPower(run);
    });
    cmp.speedup = cmp.apexSeconds > 0.0
        ? cmp.detailedSeconds / cmp.apexSeconds
        : 0.0;

    // Average the detailed series over each interval and compare.
    double sumDet = 0.0;
    double sumApex = 0.0;
    double sumErr = 0.0;
    for (size_t i = 0; i < fast.size(); ++i) {
        uint64_t start = static_cast<uint64_t>(i) * intervalCycles;
        uint64_t end = std::min<uint64_t>(start + intervalCycles,
                                          detailed.size());
        double mean = 0.0;
        for (uint64_t c = start; c < end; ++c)
            mean += detailed[static_cast<size_t>(c)];
        if (end > start)
            mean /= static_cast<double>(end - start);
        sumDet += mean;
        sumApex += fast[i];
        if (mean > 0.0)
            sumErr += std::abs(fast[i] - mean) / mean;
    }
    size_t n = fast.size() ? fast.size() : 1;
    cmp.detailedMeanPj = sumDet / static_cast<double>(n);
    cmp.apexMeanPj = sumApex / static_cast<double>(n);
    cmp.meanAbsErrorFrac = sumErr / static_cast<double>(n);
    return cmp;
}

} // namespace p10ee::power
