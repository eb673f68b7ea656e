/**
 * @file
 * Raw simulator-speed harness: host-MIPS of the bare core advance
 * loop, per config x SMT. Each row warms one CoreModel, then times
 * repeated measurement windows on it (best rep wins — the max-MIPS
 * estimator rejects scheduler noise).
 */

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"

using namespace p10ee;

namespace {

/** Best-of-reps host-MIPS of one warmed machine. */
double
rowMips(const core::CoreConfig& cfg,
        const workloads::WorkloadProfile& profile, int smt,
        uint64_t warmupInstrs, uint64_t measureInstrs)
{
    std::vector<std::unique_ptr<workloads::SyntheticWorkload>> sources;
    std::vector<workloads::InstrSource*> ptrs;
    for (int t = 0; t < smt; ++t) {
        sources.push_back(
            std::make_unique<workloads::SyntheticWorkload>(profile, t));
        ptrs.push_back(sources.back().get());
    }
    auto model = std::make_unique<core::CoreModel>(cfg);
    model->beginRun(ptrs);
    model->advance(warmupInstrs);
    bench::accountSimInstrs(warmupInstrs);

    core::RunOptions opts;
    opts.measureInstrs = measureInstrs;
    constexpr int kReps = 5;
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const core::RunResult r = model->measure(opts);
        const double dt = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        bench::accountSimInstrs(r.instrs);
        bench::accountMeasured(r.instrs, dt);
        if (dt > 0.0)
            best = std::max(best,
                            static_cast<double>(r.instrs) / dt / 1e6);
    }
    return best;
}

} // namespace

int
main(int argc, char** argv)
{
    auto ctx = bench::benchInit(argc, argv, "bench_core_mips");
    const uint64_t kInstrs = ctx.instrsOr(1500000);
    const uint64_t kWarmup = ctx.warmupOr(30000);

    const workloads::WorkloadProfile profile =
        workloads::specint2017().front();

    common::Table t("core advance-loop host-MIPS (config x SMT)");
    t.header({"config", "smt", "mips"});

    struct Cfg
    {
        const char* name;
        core::CoreConfig cfg;
    };
    const std::vector<Cfg> cfgs = {{"power10", core::power10()},
                                   {"power9", core::power9()}};
    for (const Cfg& c : cfgs) {
        for (int smt : {1, 2, 4}) {
            const double mips =
                rowMips(c.cfg, profile, smt, kWarmup, kInstrs);
            ctx.report.addScalar("core_mips.host_mips." +
                                     std::string(c.name) + ".smt" +
                                     std::to_string(smt),
                                 mips);
            t.row({c.name, std::to_string(smt), common::fmt(mips, 2)});
        }
    }

    t.print();
    ctx.report.addTable(t);
    return bench::benchFinish(ctx);
}
