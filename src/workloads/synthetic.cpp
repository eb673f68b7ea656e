#include "workloads/synthetic.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/hash.h"
#include "common/shared_cache.h"

namespace p10ee::workloads {

using isa::OpClass;
using isa::TraceInstr;
namespace reg = isa::reg;

namespace {

// Register pools. r1..r4 are "stable" (never written, long-lived values
// like stack/global pointers); r5..r30 rotate as destinations. VSRs
// likewise split into a stable staging pool and a rotating pool.
constexpr uint16_t kStableGpr = reg::kGprBase + 1;
constexpr int kNumStableGpr = 4;
constexpr uint16_t kRotGpr = reg::kGprBase + 5;
constexpr int kNumRotGpr = 26;
constexpr uint16_t kRotVsr = reg::kVsrBase + 4;
constexpr int kNumRotVsr = 48;

// Every program's text starts here; SMT copies share it.
constexpr uint64_t kCodeBase = 0x1000000ull;

/**
 * Identity bytes of a synthetic profile: every statistical field, in
 * declaration order. profileHash() hashes them and the program cache
 * keys on them; a field missing here would let two different workloads
 * alias one cache entry, checkpoint or program.
 */
std::vector<uint8_t>
syntheticIdentity(const WorkloadProfile& p)
{
    common::BinWriter w;
    w.str(p.name);
    w.f64(p.loadFrac);
    w.f64(p.storeFrac);
    w.f64(p.branchFrac);
    w.f64(p.fpFrac);
    w.f64(p.vsuFrac);
    w.f64(p.mulFrac);
    w.f64(p.divFrac);
    w.f64(p.biasedBranchFrac);
    w.f64(p.takenBias);
    w.f64(p.indirectFrac);
    w.u64(static_cast<uint64_t>(p.indirectTargets));
    w.f64(p.indirectDominance);
    w.f64(p.wHot);
    w.f64(p.wWarm);
    w.f64(p.wCold);
    w.f64(p.wHuge);
    w.f64(p.strideFrac);
    w.f64(p.depChain);
    w.f64(p.prefixedFrac);
    w.u64(static_cast<uint64_t>(p.numBlocks));
    w.u64(static_cast<uint64_t>(p.avgBlockLen));
    w.u64(p.seed);
    return w.takeBytes();
}

} // namespace

uint64_t
profileHash(const WorkloadProfile& p)
{
    if (!p.frontend.empty()) {
        // Frontend-bound profiles are content-addressed: the scheme,
        // the external artifact's content hash and the seed. The path
        // and display metadata deliberately stay out so moving or
        // re-describing a trace keeps cache keys stable, while one
        // mutated instruction (a different content hash) invalidates.
        common::BinWriter w;
        w.str(p.frontend);
        w.u64(p.contentHash);
        w.u64(p.seed);
        common::Fnv1a h;
        h.bytes(w.bytes().data(), w.size());
        return h.digest();
    }
    const std::vector<uint8_t> id = syntheticIdentity(p);
    common::Fnv1a h;
    h.bytes(id.data(), id.size());
    return h.digest();
}

ReplaySource::ReplaySource(std::string name,
                           std::vector<isa::TraceInstr> instrs)
    : name_(std::move(name)), instrs_(std::move(instrs))
{
    P10_ASSERT(!instrs_.empty(), "empty replay loop");
}

isa::TraceInstr
ReplaySource::next()
{
    const isa::TraceInstr& in = instrs_[cursor_];
    cursor_ = (cursor_ + 1) % instrs_.size();
    return in;
}

SyntheticProgram::SyntheticProgram(const WorkloadProfile& p)
    : rng_(p.seed * 0x9e3779b9u + 0x1234567u)
{
    P10_ASSERT(p.numBlocks >= 2, "need at least two blocks");

    // Normalize the non-branch mix: each block carries exactly one
    // terminating branch, so block length realizes branchFrac and the
    // other classes are drawn from the mix renormalized without branches.
    double nb = 1.0 - p.branchFrac;
    P10_ASSERT(nb > 0.05, "branch fraction too high");
    double thLoad = p.loadFrac / nb;
    double thStore = thLoad + p.storeFrac / nb;
    double thFp = thStore + p.fpFrac / nb;
    double thVsu = thFp + p.vsuFrac / nb;
    double thMul = thVsu + p.mulFrac / nb;
    double thDiv = thMul + p.divFrac / nb;

    double tierW[4] = {p.wHot, p.wWarm, p.wCold, p.wHuge};
    double tierSum = tierW[0] + tierW[1] + tierW[2] + tierW[3];
    P10_ASSERT(tierSum > 0, "no memory tier weights");

    // Mean block length is 1/branchFrac (one branch per block);
    // +/-50% jitter keeps fetch groups irregular.
    const double ideal = 1.0 / p.branchFrac;
    // Block lengths average 1.05 x ideal; the margin spares the flat
    // template array a regrowth on all but the smallest programs.
    blocks_.reserve(static_cast<size_t>(p.numBlocks));
    templates_.reserve(static_cast<size_t>(p.numBlocks) *
                       static_cast<size_t>(std::lround(ideal * 1.1)));
    int rotGpr = 0;
    int rotVsr = 0;
    uint64_t pcCursor = kCodeBase;
    for (int b = 0; b < p.numBlocks; ++b) {
        Block blk{pcCursor, static_cast<uint32_t>(templates_.size()), 0};
        int len = std::max(
            2, static_cast<int>(
                   std::lround(ideal * (0.55 + rng_.uniform()))));

        for (int i = 0; i < len - 1; ++i) {
            Template t{};
            double u = rng_.uniform();
            bool isVec = false;
            if (u < thLoad) {
                t.op = OpClass::Load;
            } else if (u < thStore) {
                t.op = OpClass::Store;
            } else if (u < thFp) {
                t.op = OpClass::FpScalar;
            } else if (u < thVsu) {
                t.op = rng_.chance(0.7) ? OpClass::VsuFp : OpClass::VsuInt;
                isVec = true;
            } else if (u < thMul) {
                t.op = OpClass::IntMul;
            } else if (u < thDiv) {
                t.op = OpClass::IntDiv;
            } else {
                t.op = OpClass::IntAlu;
            }

            // Destination register from the rotating pool.
            bool fpDest = t.op == OpClass::FpScalar || isVec;
            if (t.op == OpClass::Store) {
                t.dest = reg::kNone;
            } else if (fpDest) {
                t.dest = static_cast<uint16_t>(kRotVsr +
                                               rotVsr++ % kNumRotVsr);
            } else {
                t.dest = static_cast<uint16_t>(kRotGpr +
                                               rotGpr++ % kNumRotGpr);
            }

            // Sources: short chains with probability depChain, stable
            // long-lived values otherwise. "Recent" means a destination
            // written a few templates earlier in this block, so the
            // dependence re-materializes on every dynamic visit.
            int nsrc = isa::isLoad(t.op) ? 1 : 2;
            if (t.op == OpClass::Store)
                nsrc = 2; // data + address base
            for (int s = 0; s < nsrc; ++s) {
                if (i > 0 && rng_.chance(p.depChain)) {
                    int back = 1 + static_cast<int>(rng_.below(
                                       std::min(i, 3)));
                    const Template& prod =
                        templates_[blk.first +
                                   static_cast<size_t>(i - back)];
                    t.src[s] = prod.dest != reg::kNone
                        ? prod.dest
                        : static_cast<uint16_t>(
                              kStableGpr + rng_.below(kNumStableGpr));
                } else {
                    t.src[s] = static_cast<uint16_t>(
                        kStableGpr + rng_.below(kNumStableGpr));
                }
            }

            // Prefixed encodings: long-displacement loads/stores and
            // long-immediate ALU ops.
            if ((t.op == OpClass::IntAlu || isa::isLoad(t.op) ||
                 isa::isStore(t.op)) &&
                rng_.chance(p.prefixedFrac)) {
                t.prefixed = true;
            }

            if (isa::isLoad(t.op) || isa::isStore(t.op)) {
                double w = rng_.uniform() * tierSum;
                t.regionTier = w < tierW[0] ? 0
                    : w < tierW[0] + tierW[1] ? 1
                    : w < tierW[0] + tierW[1] + tierW[2] ? 2 : 3;
                t.strided = rng_.chance(p.strideFrac);
                t.accessSize = isVec ? 16 : 8;
                t.stride = t.strided
                    ? static_cast<uint32_t>(
                          t.accessSize * (1 + rng_.below(4)))
                    : 0;
            }
            templates_.push_back(t);
        }

        // Assign byte offsets (prefixed instructions are 8 bytes); the
        // branch follows the last body instruction.
        uint32_t off = 0;
        for (size_t q = blk.first; q < templates_.size(); ++q) {
            templates_[q].pcOff = off;
            off += templates_[q].prefixed ? 8 : 4;
        }

        // Terminating branch.
        Template br{};
        br.isBranch = true;
        br.pcOff = off;
        br.indirect = rng_.chance(p.indirectFrac);
        br.op = br.indirect ? OpClass::BranchIndirect : OpClass::Branch;
        br.dest = reg::kNone;
        // Condition depends on the most recent producer in the block,
        // so mispredicted branches resolve late when that producer is a
        // long-latency op (the realistic flush-cost structure).
        br.src[0] = static_cast<uint16_t>(reg::kCrBase + rng_.below(8));
        for (size_t q = templates_.size(); q-- > blk.first;) {
            if (templates_[q].dest != reg::kNone) {
                br.src[0] = templates_[q].dest;
                break;
            }
        }
        br.fallthrough = (b + 1) % p.numBlocks;
        if (br.indirect) {
            // Call-like dispatch: targets anywhere in the code.
            int nt = std::max(2, p.indirectTargets);
            br.targetsFirst =
                static_cast<uint32_t>(indirectTargets_.size());
            br.targetsCount = static_cast<uint32_t>(nt);
            for (int q = 0; q < nt; ++q)
                indirectTargets_.push_back(
                    static_cast<int32_t>(rng_.below(p.numBlocks)));
        }
        const bool biased = rng_.chance(p.biasedBranchFrac);
        if (biased && rng_.chance(0.08)) {
            // Loop: a short backward target, taken period-1 times, then
            // one fall-through exit. Control flow keeps sweeping the
            // code after each loop finishes.
            br.patternPeriod = 4 + static_cast<uint32_t>(rng_.below(9));
            int back = 1 + static_cast<int>(rng_.below(3));
            br.takenTarget = b >= back ? b - back : 0;
        } else {
            // Non-loop conditional: forward target. Keeping taken
            // targets forward avoids unrealistic attractor cycles and
            // makes the dynamic mix track the static mix.
            br.takenTarget =
                (b + 1 + static_cast<int>(rng_.below(12))) % p.numBlocks;
            if (biased) {
                // Strongly predictable: almost-always-taken with
                // probability takenBias, almost-never otherwise.
                br.bias = rng_.chance(p.takenBias) ? 0.995 : 0.005;
            } else {
                br.bias = 0.15 + rng_.uniform() * 0.7;
            }
        }
        templates_.push_back(br);
        blk.count = static_cast<uint32_t>(templates_.size() - blk.first);
        blocks_.push_back(blk);

        pcCursor += br.pcOff + 4;
    }
}

std::shared_ptr<const SyntheticProgram>
SyntheticProgram::shared(const WorkloadProfile& profile)
{
    static common::SharedCache<std::vector<uint8_t>, SyntheticProgram>
        cache;
    return cache.getOrBuild(syntheticIdentity(profile), [&profile] {
        return std::make_shared<const SyntheticProgram>(profile);
    });
}

SyntheticWorkload::SyntheticWorkload(const WorkloadProfile& profile,
                                     int threadId)
    : profile_(profile),
      // SMT copies of a rate-style workload share the program text (the
      // same binary) but have private data footprints, so only the data
      // base shifts per thread.
      program_(SyntheticProgram::shared(profile)),
      blocks_(program_->blocks().data()),
      templates_(program_->templates().data()),
      targets_(program_->indirectTargets().data()),
      rng_(program_->rngAfterBuild()),
      // The per-thread shift is 1GB plus an odd multiple of the page
      // size: power-of-two-only offsets would land every thread's
      // regions on the same cache/TLB sets.
      dataBase_(0x10000000ull +
                static_cast<uint64_t>(threadId) * 0x40000000ull +
                static_cast<uint64_t>(threadId) * 0x910000ull),
      branchCount_(program_->blocks().size(), 0)
{
}

isa::TraceInstr
SyntheticWorkload::instantiate(const Template& tmpl, uint64_t pc)
{
    TraceInstr in;
    in.op = tmpl.op;
    in.dest = tmpl.dest;
    for (int s = 0; s < 3; ++s)
        in.src[s] = tmpl.src[s];
    in.pc = pc;
    in.prefixed = tmpl.prefixed;

    if (tmpl.regionTier >= 0) {
        static constexpr uint64_t kTierBase[4] = {
            0, 0x0200000, 0x2000000, 0x8000000};
        uint64_t size = tmpl.regionTier == 0 ? regions_.hot
            : tmpl.regionTier == 1 ? regions_.warm
            : tmpl.regionTier == 2 ? regions_.cold
            : regions_.huge;
        uint64_t off;
        if (tmpl.strided) {
            uint64_t& cur = cursor_[tmpl.regionTier];
            cur = (cur + tmpl.stride) % size;
            off = cur;
        } else if (tmpl.regionTier >= 3) {
            // Irregular accesses to the huge tier follow a Zipf-like
            // popularity curve: real heaps have hot objects, so part of
            // the footprint stays cache-resident. The cold tier is
            // uniform: it fits one copy's L3 share but thrashes it at
            // SMT8, which is what pressures the warm tier out of L3.
            off = rng_.zipf(size / tmpl.accessSize) * tmpl.accessSize;
        } else {
            off = rng_.below(size / tmpl.accessSize) * tmpl.accessSize;
        }
        in.addr = dataBase_ + kTierBase[tmpl.regionTier] + off;
        in.size = tmpl.accessSize;
        in.memTier = static_cast<uint8_t>(tmpl.regionTier);
    }

    if (tmpl.isBranch) {
        int branchId = curBlock_; // one branch per block
        uint32_t& count = branchCount_[static_cast<size_t>(branchId)];
        if (tmpl.indirect) {
            in.taken = true;
            // Dominant-target behaviour with a cyclic minority: the
            // cycle is learnable by a target-history predictor
            // (POWER10) but not by a last-target cache (POWER9).
            size_t n = tmpl.targetsCount;
            size_t pick;
            uint32_t slot = count % 16;
            uint32_t domSlots = static_cast<uint32_t>(
                profile_.indirectDominance * 16.0);
            if (n <= 1 || slot < domSlots) {
                pick = 0;
            } else {
                // The minority targets follow a fixed schedule: real
                // dispatch sites correlate with recent control flow, so
                // a target-history predictor can learn them while a
                // last-target cache cannot.
                pick = 1 + static_cast<size_t>(count / 16 + slot) %
                           (n - 1);
            }
            int tgt = targets_[tmpl.targetsFirst + pick];
            in.target = blocks_[tgt].pcBase;
            curBlock_ = tgt;
        } else {
            bool taken;
            if (tmpl.patternPeriod > 0) {
                taken = (count % tmpl.patternPeriod) !=
                        tmpl.patternPeriod - 1;
            } else {
                taken = rng_.chance(tmpl.bias);
            }
            in.taken = taken;
            int tgt = taken ? tmpl.takenTarget : tmpl.fallthrough;
            in.target = blocks_[tmpl.takenTarget].pcBase;
            curBlock_ = tgt;
        }
        ++count;
        curInstr_ = 0;
    }
    return in;
}

isa::TraceInstr
SyntheticWorkload::next()
{
    const SyntheticProgram::Block& blk = blocks_[curBlock_];
    P10_ASSERT(curInstr_ < blk.count, "walker out of block");
    const Template& tmpl = templates_[blk.first + curInstr_];
    uint64_t pc = blk.pcBase + tmpl.pcOff;

    int blockBefore = curBlock_;
    size_t instrBefore = curInstr_;
    TraceInstr in = instantiate(tmpl, pc);
    ++dynInstrs_;

    // Non-branch templates advance within the block; instantiate()
    // already redirected the walker for branches.
    if (!tmpl.isBranch) {
        P10_ASSERT(curBlock_ == blockBefore && curInstr_ == instrBefore,
                   "non-branch moved the walker");
        ++curInstr_;
    }
    return in;
}

void
SyntheticWorkload::saveState(common::BinWriter& w) const
{
    rng_.saveState(w);
    w.u32(static_cast<uint32_t>(curBlock_));
    w.u64(curInstr_);
    for (uint64_t c : cursor_)
        w.u64(c);
    w.u64(branchCount_.size());
    for (uint32_t c : branchCount_)
        w.u32(c);
    w.u64(dynInstrs_);
}

common::Status
SyntheticWorkload::loadState(common::BinReader& r)
{
    common::Xoshiro rng = rng_;
    if (auto st = rng.loadState(r); !st.ok())
        return st;
    uint32_t curBlock = r.u32();
    uint64_t curInstr = r.u64();
    uint64_t cursor[4];
    for (auto& c : cursor)
        c = r.u64();
    uint64_t nBranch = r.u64();
    const std::vector<SyntheticProgram::Block>& blocks = program_->blocks();
    if (r.failed() || curBlock >= blocks.size() ||
        curInstr >= blocks[curBlock].count ||
        nBranch != branchCount_.size())
        return common::Error::invalidArgument(
            "workload walker state out of range");
    std::vector<uint32_t> branchCount(branchCount_.size());
    for (auto& c : branchCount)
        c = r.u32();
    uint64_t dynInstrs = r.u64();
    if (r.failed())
        return r.status("workload state");
    rng_ = rng;
    branchCount_ = std::move(branchCount);
    curBlock_ = static_cast<int>(curBlock);
    curInstr_ = curInstr;
    for (int i = 0; i < 4; ++i)
        cursor_[i] = cursor[i];
    dynInstrs_ = dynInstrs;
    return common::okStatus();
}

} // namespace p10ee::workloads
