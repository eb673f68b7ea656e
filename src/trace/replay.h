/**
 * @file
 * Trace replay and capture: the bridge between `p10trace/1` containers
 * and the workload layer.
 *
 * `TraceReplaySource` walks a loaded container as an endless
 * instruction stream (wrapping at the end, the ReplaySource
 * semantics) and is checkpointable like the synthetic generators: its
 * dynamic state is one global cursor, saved with the trace's content
 * hash so a checkpoint can never silently resume over a different
 * trace that happens to live at the same path. restore() + measure()
 * is bit-identical to the uninterrupted run.
 *
 * `TraceCapture` is the producing side: a pass-through InstrSource
 * that tees every instruction it forwards into a TraceWriter, so any
 * existing source — synthetic profile, kernel window, AI phase, even
 * another trace — records into a container while driving a simulation
 * or a plain capture loop.
 *
 * `registerTraceFrontend()` plugs the "trace" scheme into the
 * workload registry (workloads/registry.h), which is what lets
 * SweepSpec JSON, p10sim_cli, p10sweep_cli, p10d and p10fleet all
 * name `trace:<path>` workloads. Containers are loaded once per
 * process (shared, content-verified) and re-validated against the
 * resolving profile's content hash at source construction, so a file
 * swapped after resolution is a structured error at the next source
 * built from it, never a silently wrong simulation. A sweep run holds
 * its containers for its whole length, so its shards replay what the
 * run holds instead of reloading the file.
 */

#ifndef P10EE_TRACE_REPLAY_H
#define P10EE_TRACE_REPLAY_H

#include <memory>
#include <string>

#include "common/error.h"
#include "trace/container.h"
#include "workloads/registry.h"
#include "workloads/source.h"

namespace p10ee::trace {

/** The workload-registry scheme this frontend owns. */
inline constexpr const char* kScheme = "trace";

/**
 * Endless, checkpointable replay of a loaded trace container. SMT
 * threads replaying one trace share the container (and its decoded
 * chunks are produced per source, one window at a time); unlike the
 * synthetic generators there is no per-thread address shift — the
 * recorded addresses ARE the workload.
 */
class TraceReplaySource : public workloads::CheckpointableSource
{
  public:
    /**
     * @param data a container that passed verifyContent() — the
     *        registry's loader guarantees this; direct constructors
     *        must verify first (decode failures past this point are
     *        programming errors).
     */
    explicit TraceReplaySource(std::shared_ptr<const TraceData> data);

    isa::TraceInstr next() override;

    /** "trace:<recorded name>". */
    std::string name() const override;

    /** Global index of the next instruction to replay. */
    uint64_t cursor() const { return cursor_; }

    /** The replayed container. */
    const TraceData& data() const { return *data_; }

    // Checkpoint surface: the serialized state is the content hash
    // (identity guard) plus the global cursor.
    void saveState(common::BinWriter& w) const override;
    common::Status loadState(common::BinReader& r) override;

  private:
    void decodeWindow(size_t chunk);

    std::shared_ptr<const TraceData> data_;
    std::vector<isa::TraceInstr> window_; ///< decoded current chunk
    size_t chunk_ = 0;       ///< index of the decoded chunk
    size_t posInWindow_ = 0; ///< next instruction within window_
    uint64_t cursor_ = 0;    ///< global index of the next instruction
};

/**
 * Pass-through recorder: forwards @p inner's stream unchanged while
 * teeing every instruction into @p writer. Wrap any source, run it
 * (through the core model or a plain pull loop), then finish() the
 * writer.
 */
class TraceCapture : public workloads::InstrSource
{
  public:
    /** Both referents must outlive the capture. */
    TraceCapture(workloads::InstrSource& inner, TraceWriter& writer)
        : inner_(inner), writer_(writer)
    {}

    isa::TraceInstr
    next() override
    {
        isa::TraceInstr in = inner_.next();
        writer_.add(in);
        return in;
    }

    std::string name() const override { return inner_.name(); }

  private:
    workloads::InstrSource& inner_;
    TraceWriter& writer_;
};

/**
 * Record @p n instructions of @p source into a sealed container.
 * When @p meta.dialect is empty it is auto-detected from the captured
 * stream ("power-isa-3.1" when prefixed or MMA instructions appear,
 * else "power-isa-3.0").
 */
TraceData recordTrace(workloads::InstrSource& source, uint64_t n,
                      TraceMeta meta,
                      uint8_t encoding = kEncodingDelta);

/**
 * Load the container at @p path through the process-wide shared
 * cache: the file is read, envelope-validated and content-verified
 * once, then shared by every replay source over it (a sweep runs one
 * trace in many shards x SMT threads).
 */
common::Expected<std::shared_ptr<const TraceData>>
loadShared(const std::string& path);

/**
 * Resolve "trace:<path>" (the part after the scheme) into a
 * frontend-bound WorkloadProfile: name "trace:<recorded name>",
 * sourcePath, contentHash.
 */
common::Expected<workloads::WorkloadProfile>
resolveTraceWorkload(const std::string& path);

/**
 * Idempotent registration of the "trace" scheme into the workload
 * registry. The resolving layers (sweep spec expansion, the api
 * facade, the trace CLI) call this before resolution; it is cheap and
 * thread-safe. Static self-registration is deliberately not used — a
 * static library member with no referenced symbol is droppable by the
 * linker.
 */
void registerTraceFrontend();

} // namespace p10ee::trace

#endif // P10EE_TRACE_REPLAY_H
