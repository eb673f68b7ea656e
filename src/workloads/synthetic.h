/**
 * @file
 * Profile-driven synthetic workload generator.
 *
 * Substitutes for the paper's Chopstix-extracted SPECint proxy workloads
 * (§III-A): each profile describes a benchmark's instruction mix, branch
 * behaviour, working-set distribution, and ILP, and the generator walks a
 * synthesized static control-flow graph, producing an endless dynamic
 * instruction stream with those properties. Behaviour is mechanistic —
 * branch outcomes come from per-branch bias/pattern state the predictor
 * must actually learn, and memory addresses come from real region
 * cursors the cache models actually index.
 */

#ifndef P10EE_WORKLOADS_SYNTHETIC_H
#define P10EE_WORKLOADS_SYNTHETIC_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "isa/instr.h"
#include "workloads/source.h"

namespace p10ee::workloads {

/**
 * Data-region tiers every profile's memory accesses are spread over.
 * Sizes straddle the POWER9/POWER10 cache-size boundaries: `hot` fits
 * any L1; `warm` is sized so eight SMT copies fit a 2MB L2 but thrash a
 * 512KB one (the Fig. 4 L2-ablation signal); `cold` fits an L3 region
 * for one copy but spills at SMT8; `huge` always comes from memory.
 */
struct RegionSizes
{
    uint64_t hot = 4 * 1024;
    uint64_t warm = 80 * 1024;
    uint64_t cold = 2560 * 1024;
    uint64_t huge = 64ull * 1024 * 1024;
};

/** Statistical description of one benchmark-like workload. */
struct WorkloadProfile
{
    std::string name;

    // Instruction mix as fractions of the dynamic stream; the remainder
    // after all listed classes is IntAlu.
    double loadFrac = 0.25;
    double storeFrac = 0.10;
    double branchFrac = 0.18;
    double fpFrac = 0.0;     ///< scalar FP
    double vsuFrac = 0.0;    ///< 128-bit SIMD
    double mulFrac = 0.02;
    double divFrac = 0.002;

    // Branch behaviour.
    double biasedBranchFrac = 0.85; ///< strongly biased / patterned
    double takenBias = 0.6;         ///< mean taken rate of biased branches
    double indirectFrac = 0.03;     ///< fraction of branches indirect
    int indirectTargets = 4;        ///< distinct targets per indirect
    /**
     * Probability an indirect branch goes to its dominant target; the
     * remainder cycles through the other targets (the interpreter
     * dispatch-loop pattern when this is low).
     */
    double indirectDominance = 0.75;

    // Memory behaviour: access weights over the region tiers
    // (normalized internally) and the fraction of accesses that stream
    // with a fixed stride (prefetchable).
    double wHot = 0.70;
    double wWarm = 0.20;
    double wCold = 0.07;
    double wHuge = 0.03;
    double strideFrac = 0.5;

    // ILP: probability that an operand comes from a recently produced
    // value (short dependence chains) rather than an old stable one.
    double depChain = 0.35;

    /**
     * Fraction of eligible ops emitted as Power ISA 3.1 prefixed
     * (8-byte) instructions: pc-relative addressing and long
     * immediates. Zero for binaries that must also run on POWER9.
     */
    double prefixedFrac = 0.0;

    // Static code shape.
    int numBlocks = 256;
    int avgBlockLen = 10;

    uint64_t seed = 1;

    /**
     * Workload-frontend binding (see workloads/registry.h). Empty for
     * synthetic profiles; otherwise the registered scheme (e.g.
     * "trace") whose frontend constructs the instruction source, with
     * @ref sourcePath naming the external artifact and @ref
     * contentHash its content identity. The statistical fields above
     * are ignored for frontend-bound profiles — the external stream IS
     * the workload.
     */
    std::string frontend;
    std::string sourcePath;
    uint64_t contentHash = 0;
};

/**
 * Deterministic FNV-1a content hash over every WorkloadProfile field,
 * stable across platforms. Used wherever a profile keys persisted
 * state (sweep shard cache entries, warmup checkpoints): a profile
 * whose *definition* changed invalidates by content even when its name
 * did not.
 *
 * Frontend-bound profiles hash by *content*: the frontend scheme, the
 * external artifact's content hash and the seed — never the path or
 * display metadata — so re-locating or re-describing a trace keeps
 * cache keys stable while any mutation of its instructions changes
 * them.
 */
uint64_t profileHash(const WorkloadProfile& p);

/**
 * Immutable static code of one synthetic profile: basic blocks,
 * instruction templates and indirect-branch targets in flat arrays,
 * plus the RNG state the build left behind, which seeds every walker.
 *
 * SMT copies of a rate-style workload run the same binary, so every
 * walker of a profile shares one program read-only (shared()); only
 * the walkers' dynamic state is per thread.
 */
class SyntheticProgram
{
  public:
    /** One static instruction template. */
    struct Template
    {
        double bias = 0.5;          ///< taken probability (conditional)
        uint32_t pcOff = 0;         ///< byte offset within the block
        uint32_t stride = 0;        ///< bytes per access when strided
        uint32_t patternPeriod = 0; ///< >0: deterministic period pattern
        int32_t takenTarget = 0;    ///< block index when taken
        int32_t fallthrough = 0;    ///< block index when not taken
        uint32_t targetsFirst = 0;  ///< first entry in indirectTargets()
        uint32_t targetsCount = 0;  ///< entries, 0 unless indirect
        uint16_t dest = 0;
        uint16_t src[3] = {isa::reg::kNone, isa::reg::kNone,
                           isa::reg::kNone};
        uint16_t accessSize = 8;
        isa::OpClass op = isa::OpClass::IntAlu;
        int8_t regionTier = -1; ///< -1: not a memory op
        bool prefixed = false;  ///< 8-byte prefixed encoding
        bool strided = false;
        bool isBranch = false;
        bool indirect = false;
    };

    /** A basic block: templates [first, first + count), branch last. */
    struct Block
    {
        uint64_t pcBase;
        uint32_t first;
        uint32_t count;
    };

    /** Synthesize the static code @p profile describes. */
    explicit SyntheticProgram(const WorkloadProfile& profile);

    /**
     * The program of @p profile from the process-wide cache, built on a
     * miss. The key is the exact bytes profileHash() hashes for a
     * synthetic profile, not the hash, so a collision cannot hand one
     * profile's code to another. Entries are weak: a program lives as
     * long as some walker holds it.
     */
    static std::shared_ptr<const SyntheticProgram>
    shared(const WorkloadProfile& profile);

    const std::vector<Block>& blocks() const { return blocks_; }
    const std::vector<Template>& templates() const { return templates_; }
    const std::vector<int32_t>& indirectTargets() const
    {
        return indirectTargets_;
    }

    /** RNG state after the build: where every walker's stream starts. */
    const common::Xoshiro& rngAfterBuild() const { return rng_; }

  private:
    common::Xoshiro rng_;
    std::vector<Block> blocks_;
    std::vector<Template> templates_;
    std::vector<int32_t> indirectTargets_;
};

/**
 * CFG-walking instruction generator for one profile.
 *
 * Construction fetches the profile's shared static code (blocks,
 * templates, branch personalities); next() walks it. Two generators
 * with the same profile and seed produce identical streams.
 */
class SyntheticWorkload : public CheckpointableSource
{
  public:
    /**
     * @param profile statistical description to realize.
     * @param threadId shifts the data base address so SMT threads
     *        running the same profile touch distinct footprints.
     */
    explicit SyntheticWorkload(const WorkloadProfile& profile,
                               int threadId = 0);

    isa::TraceInstr next() override;

    std::string name() const override { return profile_.name; }

    /** The profile this stream realizes. */
    const WorkloadProfile& profile() const { return profile_; }

    /** The shared static code this walker steps through. */
    const SyntheticProgram& program() const { return *program_; }

    /** Static basic-block count (for Chopstix coverage accounting). */
    int
    numBlocks() const
    {
        return static_cast<int>(program_->blocks().size());
    }

    /** Index of the block the walker is currently in. */
    int currentBlock() const { return curBlock_; }

    // ---- Checkpoint surface (src/ckpt) ----
    // The static code is a deterministic function of the profile, so
    // only the walker's dynamic state is serialized: RNG, block cursor,
    // region cursors, branch counters.

    /** Serialize the dynamic walker state. */
    void saveState(common::BinWriter& w) const override;

    /**
     * Restore state saved by saveState() into a generator constructed
     * from the same profile and threadId; cursor and counter ranges
     * are validated against the static code.
     */
    common::Status loadState(common::BinReader& r) override;

  private:
    using Template = SyntheticProgram::Template;

    isa::TraceInstr instantiate(const Template& tmpl, uint64_t pc);

    WorkloadProfile profile_;
    std::shared_ptr<const SyntheticProgram> program_;
    // The program's arrays, cached for next(): they never move while
    // program_ holds the program.
    const SyntheticProgram::Block* blocks_;
    const Template* templates_;
    const int32_t* targets_;
    RegionSizes regions_;
    common::Xoshiro rng_;
    uint64_t dataBase_;

    int curBlock_ = 0;
    size_t curInstr_ = 0;

    // Streaming cursors, one per region tier.
    uint64_t cursor_[4] = {0, 0, 0, 0};
    // Per-branch dynamic counters for pattern branches, indexed densely.
    std::vector<uint32_t> branchCount_;
    uint64_t dynInstrs_ = 0;
};

} // namespace p10ee::workloads

#endif // P10EE_WORKLOADS_SYNTHETIC_H
