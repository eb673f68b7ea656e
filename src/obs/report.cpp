#include "obs/report.h"

#include <cstdio>

#include "common/assert.h"
#include "obs/json.h"

namespace p10ee::obs {

std::string
gitDescribe()
{
    static const std::string cached = [] {
        std::string out;
        std::FILE* p =
            ::popen("git describe --always --dirty 2>/dev/null", "r");
        if (p != nullptr) {
            char buf[128];
            if (std::fgets(buf, sizeof(buf), p) != nullptr)
                out = buf;
            ::pclose(p);
        }
        while (!out.empty() &&
               (out.back() == '\n' || out.back() == '\r'))
            out.pop_back();
        return out.empty() ? std::string("unknown") : out;
    }();
    return cached;
}

void
JsonReport::addScalar(const std::string& name, double value)
{
    scalars_[name] = value;
}

void
JsonReport::addTable(const common::Table& table)
{
    tables_.push_back(table);
}

void
JsonReport::addSeries(const std::string& name, const std::string& unit,
                      std::vector<double> x, std::vector<double> y)
{
    P10_ASSERT(x.size() == y.size(), "series x/y size mismatch");
    Series s;
    s.name = name;
    s.unit = unit;
    s.x = std::move(x);
    s.y = std::move(y);
    series_.push_back(std::move(s));
}

void
JsonReport::addTimeSeries(const TimeSeriesRecorder& rec)
{
    for (const auto& t : rec.counters()) {
        Series s;
        s.name = t.name;
        s.unit = t.unit;
        s.x.reserve(t.cycle.size());
        for (uint64_t c : t.cycle)
            s.x.push_back(static_cast<double>(c));
        s.y = t.value;
        series_.push_back(std::move(s));
    }
}

std::string
JsonReport::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value(kReportSchema);

    w.key("meta").beginObject();
    w.key("tool").value(meta_.tool);
    w.key("config").value(meta_.config);
    w.key("workload").value(meta_.workload);
    w.key("seed").value(meta_.seed);
    w.key("git").value(meta_.git);
    w.key("wall_s").value(meta_.wallSeconds);
    w.key("sim_instrs").value(meta_.simInstrs);
    w.key("host_mips").value(meta_.hostMips);
    w.endObject();

    w.key("scalars").beginObject();
    for (const auto& [name, value] : scalars_)
        w.key(name).value(value);
    w.endObject();

    w.key("tables").beginArray();
    for (const auto& t : tables_) {
        w.beginObject();
        w.key("title").value(t.title());
        w.key("columns").beginArray();
        for (const auto& c : t.columns())
            w.value(c);
        w.endArray();
        w.key("rows").beginArray();
        for (const auto& r : t.data()) {
            w.beginArray();
            for (const auto& cell : r)
                w.value(cell);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.key("series").beginArray();
    for (const auto& s : series_) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("unit").value(s.unit);
        w.key("x").beginArray();
        for (double v : s.x)
            w.value(v);
        w.endArray();
        w.key("y").beginArray();
        for (double v : s.y)
            w.value(v);
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.endObject();
    return w.str();
}

common::Status
JsonReport::writeTo(const std::string& path) const
{
    return writeTextFile(path, toJson());
}

} // namespace p10ee::obs
