#include "workloads/registry.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "workloads/spec_profiles.h"

namespace p10ee::workloads {

using common::Error;
using common::Expected;

namespace {

std::mutex&
registryMutex()
{
    static std::mutex mu;
    return mu;
}

std::map<std::string, WorkloadFrontend>&
registry()
{
    static std::map<std::string, WorkloadFrontend> frontends;
    return frontends;
}

} // namespace

void
registerFrontend(WorkloadFrontend frontend)
{
    P10_ASSERT(!frontend.scheme.empty() &&
                   frontend.scheme.find(':') == std::string::npos &&
                   frontend.scheme.find('/') == std::string::npos,
               "frontend scheme must be non-empty without ':' or '/'");
    P10_ASSERT(frontend.resolve && frontend.makeSource,
               "frontend must provide resolve and makeSource");
    std::lock_guard<std::mutex> lk(registryMutex());
    registry()[frontend.scheme] = std::move(frontend);
}

bool
hasFrontend(const std::string& scheme)
{
    std::lock_guard<std::mutex> lk(registryMutex());
    return registry().count(scheme) != 0;
}

std::vector<std::string>
frontendSchemes()
{
    std::lock_guard<std::mutex> lk(registryMutex());
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto& [scheme, fe] : registry())
        names.push_back(scheme);
    return names;
}

Expected<WorkloadProfile>
resolveWorkload(const std::string& name)
{
    const size_t colon = name.find(':');
    if (colon != std::string::npos) {
        const std::string scheme = name.substr(0, colon);
        const std::string rest = name.substr(colon + 1);
        std::function<Expected<WorkloadProfile>(const std::string&)>
            resolve;
        {
            std::lock_guard<std::mutex> lk(registryMutex());
            auto it = registry().find(scheme);
            if (it != registry().end())
                resolve = it->second.resolve;
        }
        if (!resolve)
            return Error::notFound("unknown workload scheme '" +
                                   scheme + ":' in '" + name + "'");
        if (rest.empty())
            return Error::invalidArgument(
                "workload '" + name + "' names no artifact after '" +
                scheme + ":'");
        // Resolved outside the lock: resolution may read files.
        return resolve(rest);
    }
    const WorkloadProfile* p = findProfile(name);
    if (p == nullptr)
        return Error::notFound("unknown workload '" + name + "'");
    return *p;
}

Expected<std::unique_ptr<CheckpointableSource>>
makeSource(const WorkloadProfile& profile, int threadId)
{
    if (profile.frontend.empty())
        return std::unique_ptr<CheckpointableSource>(
            std::make_unique<SyntheticWorkload>(profile, threadId));
    std::function<Expected<std::unique_ptr<CheckpointableSource>>(
        const WorkloadProfile&, int)>
        make;
    {
        std::lock_guard<std::mutex> lk(registryMutex());
        auto it = registry().find(profile.frontend);
        if (it != registry().end())
            make = it->second.makeSource;
    }
    if (!make)
        return Error(common::ErrorCode::Internal,
                     "workload '" + profile.name +
                         "' is bound to unregistered frontend '" +
                         profile.frontend + "'");
    return make(profile, threadId);
}

Expected<ChipSources>
makeChipSources(const WorkloadProfile& profile, int cores, int smt)
{
    ChipSources s;
    s.threads.resize(static_cast<size_t>(cores));
    s.walkers.resize(static_cast<size_t>(cores));
    for (int c = 0; c < cores; ++c) {
        for (int t = 0; t < smt; ++t) {
            Expected<std::unique_ptr<CheckpointableSource>> src =
                makeSource(profile, c * smt + t);
            if (!src)
                return src.error();
            s.own.push_back(std::move(src.value()));
            s.threads[static_cast<size_t>(c)].push_back(
                s.own.back().get());
            s.walkers[static_cast<size_t>(c)].push_back(
                s.own.back().get());
        }
    }
    return s;
}

} // namespace p10ee::workloads
