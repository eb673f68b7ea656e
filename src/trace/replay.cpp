#include "trace/replay.h"

#include <mutex>

#include "common/assert.h"
#include "common/shared_cache.h"
#include "isa/op.h"

namespace p10ee::trace {

using common::Error;
using common::Expected;
using common::Status;

TraceReplaySource::TraceReplaySource(
    std::shared_ptr<const TraceData> data)
    : data_(std::move(data))
{
    P10_ASSERT(data_ != nullptr && data_->instrCount() > 0,
               "replay requires a non-empty trace");
    decodeWindow(0);
}

void
TraceReplaySource::decodeWindow(size_t chunk)
{
    // Into the window this source owns: its storage is reused from
    // chunk to chunk. The shared loader content-verified the container
    // (every chunk decoded once); a failure here means the caller
    // skipped that contract, which is a programming error, not hostile
    // input.
    const Status decoded = data_->decodeChunk(chunk, window_);
    P10_ASSERT(decoded.ok(),
               "replay over an unverified trace container");
    chunk_ = chunk;
    posInWindow_ = 0;
}

isa::TraceInstr
TraceReplaySource::next()
{
    if (posInWindow_ >= window_.size()) {
        const size_t nextChunk = chunk_ + 1 < data_->chunkCount()
                                     ? chunk_ + 1
                                     : 0;
        if (nextChunk == chunk_)
            posInWindow_ = 0; // single-chunk trace: no re-decode
        else
            decodeWindow(nextChunk);
    }
    const isa::TraceInstr& in = window_[posInWindow_];
    ++posInWindow_;
    ++cursor_;
    if (cursor_ >= data_->instrCount())
        cursor_ = 0;
    return in;
}

std::string
TraceReplaySource::name() const
{
    return std::string(kScheme) + ":" + data_->meta().name;
}

void
TraceReplaySource::saveState(common::BinWriter& w) const
{
    w.u64(data_->contentHash());
    w.u64(cursor_);
}

Status
TraceReplaySource::loadState(common::BinReader& r)
{
    const uint64_t hash = r.u64();
    const uint64_t cursor = r.u64();
    if (r.ok() && hash != data_->contentHash())
        return Error::invalidArgument(
            "trace replay state was saved over a different trace "
            "(content hash mismatch for '" + data_->meta().name +
            "')");
    if (r.ok() && cursor >= data_->instrCount())
        return Error::invalidArgument(
            "trace replay cursor out of range");
    if (Status st = r.status("trace replay state"); !st)
        return st;
    // Seek: find the chunk holding the cursor, decode it, position
    // within it. Chunk first-indices ascend, so a linear scan is fine
    // at chunk granularity.
    size_t chunk = data_->chunkCount() - 1;
    for (size_t i = 0; i + 1 < data_->chunkCount(); ++i)
        if (cursor < data_->chunkFirstIndex(i + 1)) {
            chunk = i;
            break;
        }
    decodeWindow(chunk);
    posInWindow_ = static_cast<size_t>(
        cursor - data_->chunkFirstIndex(chunk));
    cursor_ = cursor;
    return common::okStatus();
}

TraceData
recordTrace(workloads::InstrSource& source, uint64_t n, TraceMeta meta,
            uint8_t encoding)
{
    P10_ASSERT(n > 0, "recordTrace requires at least one instruction");
    TraceWriter writer(std::move(meta), encoding);
    bool isa31 = false;
    for (uint64_t i = 0; i < n; ++i) {
        const isa::TraceInstr in = source.next();
        isa31 = isa31 || in.prefixed || isa::isMma(in.op) ||
                in.op == isa::OpClass::Load32B ||
                in.op == isa::OpClass::Store32B;
        writer.add(in);
    }
    if (writer.meta().dialect.empty())
        writer.meta().dialect =
            isa31 ? "power-isa-3.1" : "power-isa-3.0";
    return writer.finish();
}

Expected<std::shared_ptr<const TraceData>>
loadShared(const std::string& path)
{
    // A sweep replays one trace across many shards x SMT threads; each
    // shares one loaded, verified container instead of re-reading and
    // re-verifying the file.
    static common::SharedCache<std::string, TraceData> cache;
    if (std::shared_ptr<const TraceData> hit = cache.find(path))
        return hit;

    Expected<TraceData> loaded = TraceData::load(path);
    if (!loaded)
        return loaded.error();
    // Content verification up front: replay decodes chunks on a path
    // that cannot return errors (InstrSource::next()), so every chunk
    // must be proven decodable — and match the stored content
    // identity — before any source is built over it.
    if (Status st = loaded.value().verifyContent(); !st)
        return Error(st.error().code,
                     path + ": " + st.error().message);
    return cache.publish(path, std::make_shared<const TraceData>(
                                   std::move(loaded.value())));
}

Expected<workloads::WorkloadProfile>
resolveTraceWorkload(const std::string& path)
{
    Expected<std::shared_ptr<const TraceData>> data = loadShared(path);
    if (!data)
        return data.error();
    workloads::WorkloadProfile profile;
    profile.name =
        std::string(kScheme) + ":" + data.value()->meta().name;
    profile.frontend = kScheme;
    profile.sourcePath = path;
    profile.contentHash = data.value()->contentHash();
    return profile;
}

void
registerTraceFrontend()
{
    static std::once_flag once;
    std::call_once(once, [] {
        workloads::WorkloadFrontend fe;
        fe.scheme = kScheme;
        fe.resolve = [](const std::string& rest) {
            return resolveTraceWorkload(rest);
        };
        fe.makeSource =
            [](const workloads::WorkloadProfile& profile, int threadId)
            -> Expected<
                std::unique_ptr<workloads::CheckpointableSource>> {
            (void)threadId; // the recorded addresses ARE the workload
            Expected<std::shared_ptr<const TraceData>> data =
                loadShared(profile.sourcePath);
            if (!data)
                return data.error();
            if (data.value()->contentHash() != profile.contentHash)
                return Error::invalidConfig(
                    "trace '" + profile.sourcePath +
                    "' changed since the workload was resolved "
                    "(content hash mismatch); re-expand the sweep");
            return std::unique_ptr<workloads::CheckpointableSource>(
                std::make_unique<TraceReplaySource>(
                    std::move(data.value())));
        };
        workloads::registerFrontend(std::move(fe));
    });
}

} // namespace p10ee::trace
