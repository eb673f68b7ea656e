/**
 * @file
 * Versioned machine-readable run reports (the BENCH_*.json format).
 *
 * MLPerf Power's lesson (PAPERS.md) is that efficiency claims become
 * durable only when measurement is standardized into schema-validated,
 * machine-readable artifacts. Every bench binary and the CLI emit this
 * one report shape: run metadata (tool, config, seed, git describe,
 * wall clock, host simulation speed), named scalars, the bench's
 * figure/table content, and optional time series. scripts/
 * validate_report.py checks every emitted report against the schema in
 * CI, so schema drift fails the build instead of silently breaking
 * downstream consumers.
 *
 * Schema "p10ee-report/1":
 *   {
 *     "schema": "p10ee-report/1",
 *     "meta": {"tool": str, "config": str, "workload": str,
 *              "seed": int, "git": str, "wall_s": num,
 *              "sim_instrs": int, "host_mips": num},
 *     "scalars": {name: num, ...},
 *     "tables": [{"title": str, "columns": [str], "rows": [[str]]}],
 *     "series": [{"name": str, "unit": str, "x": [num], "y": [num]}]
 *   }
 */

#ifndef P10EE_OBS_REPORT_H
#define P10EE_OBS_REPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/table.h"
#include "obs/timeseries.h"

namespace p10ee::obs {

/** Schema identifier emitted in (and required of) every report. */
inline constexpr const char* kReportSchema = "p10ee-report/1";

/** Run metadata block of a report. */
struct ReportMeta
{
    std::string tool;     ///< emitting binary (bench name, CLI)
    std::string config;   ///< machine config name ("" when n/a)
    std::string workload; ///< workload name ("" when n/a)
    uint64_t seed = 0;
    std::string git = "unknown"; ///< `git describe` of the build tree
    double wallSeconds = 0.0;    ///< host wall-clock of the run
    uint64_t simInstrs = 0;      ///< simulated instructions accounted
    double hostMips = 0.0;       ///< simInstrs / wallSeconds / 1e6
};

/** `git describe --always --dirty`, cached; "unknown" off-repo. */
std::string gitDescribe();

/** Accumulates one run's report and serializes it deterministically. */
class JsonReport
{
  public:
    ReportMeta& meta() { return meta_; }
    const ReportMeta& meta() const { return meta_; }

    /** Record one named scalar result. */
    void addScalar(const std::string& name, double value);

    /** Record a rendered figure/table verbatim. */
    void addTable(const common::Table& table);

    /** Record one named series (paired x/y; sizes must match). */
    void addSeries(const std::string& name, const std::string& unit,
                   std::vector<double> x, std::vector<double> y);

    /** Record every counter track of @p rec as a series (x = cycle). */
    void addTimeSeries(const TimeSeriesRecorder& rec);

    /** Serialize; deterministic for identical content. */
    std::string toJson() const;

    /** toJson() to a file; unwritable path is a recoverable Error. */
    common::Status writeTo(const std::string& path) const;

  private:
    struct Series
    {
        std::string name;
        std::string unit;
        std::vector<double> x;
        std::vector<double> y;
    };

    ReportMeta meta_;
    std::map<std::string, double> scalars_;
    std::vector<common::Table> tables_;
    std::vector<Series> series_;
};

} // namespace p10ee::obs

#endif // P10EE_OBS_REPORT_H
