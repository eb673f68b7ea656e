#include "core/core.h"

#include <algorithm>

#include "common/assert.h"
#include "isa/fusion.h"
#include "isa/op.h"

namespace p10ee::core {

using isa::OpClass;
using isa::TraceInstr;
namespace reg = isa::reg;

/** Per-hardware-thread pipeline state. */
struct CoreModel::ThreadState
{
    workloads::InstrSource* src = nullptr;
    uint64_t nextFetch = 0;
    uint64_t lastDecode = 0;
    uint64_t lastCommit = 0;
    uint64_t instrs = 0;

    std::array<uint64_t, reg::kNumArchRegs> regReady{};
    std::array<OpClass, reg::kNumArchRegs> regProducer{};
    std::array<uint64_t, reg::kNumAcc> accChain{};

    FifoRing rob; ///< commit cycles of in-flight ops
    FifoRing fetchBuf; ///< dispatch cycles (ibuffer depth)
    FifoRing ldq; ///< release cycles of load-queue entries
    FifoRing stq;

    uint64_t lastILine = ~0ull;
    uint64_t lastStoreLine = ~0ull;

    // Fusion lookahead: the previously decoded instruction.
    bool havePrev = false;
    TraceInstr prev;
    uint64_t prevIssue = 0;
    uint64_t prevComplete = 0;

    ThreadState() { regProducer.fill(OpClass::Nop); }
};

namespace {

/** Toggle-weighted switching counters use 1/1024 fixed point. */
uint64_t
toggleWeight(float toggle)
{
    return static_cast<uint64_t>(toggle * 1024.0f);
}

} // namespace

CoreModel::CoreModel(const CoreConfig& cfg)
    : cfg_(cfg),
      l1i_(cfg.l1i),
      l1d_(cfg.l1d),
      l2_(cfg.l2),
      l3_(cfg.l3),
      ierat_(cfg.eratEntries, cfg.pageBytes),
      derat_(cfg.eratEntries, cfg.pageBytes),
      tlb_(cfg.tlbEntries, cfg.pageBytes),
      bp_(cfg.bp),
      prefetcher_(cfg.prefetchStreams, cfg.prefetchDepth),
      fetchRing_(cfg.fetchWidth),
      decodeRing_(cfg.decodeWidth),
      dispatchRing_(cfg.dispatchWidth),
      issueRing_(cfg.issueWidth),
      commitRing_(cfg.commitWidth),
      aluRing_(cfg.aluPorts),
      fpRing_(cfg.fpPorts),
      vsuIntRing_(cfg.vsuIntPorts),
      ldRing_(cfg.ldPorts),
      stRing_(cfg.stPorts),
      brRing_(cfg.brPorts),
      mmaRing_(cfg.mmaUnits > 0 ? cfg.mmaUnits : 1),
      l2Server_(cfg.l2.occupancy),
      l3Server_(cfg.l3.occupancy),
      memServer_(cfg.memOccupancy)
{
    if (cfg.lsCombined > 0)
        lsCombinedRing_ = std::make_unique<ThrottleRing>(cfg.lsCombined);

    // Intern every fixed-name counter once; the per-instruction path
    // then runs entirely on array-indexed StatIds.
    ids_.l2Access = stats_.id("l2.access");
    ids_.l2Miss = stats_.id("l2.miss");
    ids_.l3Access = stats_.id("l3.access");
    ids_.l3Miss = stats_.id("l3.miss");
    ids_.memAccess = stats_.id("mem.access");
    ids_.memAccessInstr = stats_.id("mem.access_instr");
    ids_.ieratAccess = stats_.id("ierat.access");
    ids_.ieratMiss = stats_.id("ierat.miss");
    ids_.deratAccess = stats_.id("derat.access");
    ids_.deratMiss = stats_.id("derat.miss");
    ids_.tlbAccess = stats_.id("tlb.access");
    ids_.tlbMiss = stats_.id("tlb.miss");
    ids_.fetchLine = stats_.id("fetch.line");
    ids_.l1iMiss = stats_.id("l1i.miss");
    ids_.fetchPrefix = stats_.id("fetch.prefix");
    ids_.fetchInstr = stats_.id("fetch.instr");
    ids_.bpLookup = stats_.id("bp.lookup");
    ids_.bpIndirectMispredict = stats_.id("bp.indirect_mispredict");
    ids_.bpMispredict = stats_.id("bp.mispredict");
    ids_.flushWasted = stats_.id("flush.wasted");
    ids_.flushStall = stats_.id("flush.stall");
    ids_.fusionPair = stats_.id("fusion.pair");
    ids_.commitInstr = stats_.id("commit.instr");
    ids_.lsuStFused = stats_.id("lsu.st_fused");
    ids_.decodePrefixFused = stats_.id("decode.prefix_fused");
    ids_.decodeCracked = stats_.id("decode.cracked");
    ids_.decodeOp = stats_.id("decode.op");
    ids_.dispatchOp = stats_.id("dispatch.op");
    ids_.renameWrite = stats_.id("rename.write");
    ids_.rfRead = stats_.id("rf.read");
    ids_.fusionSharedIssue = stats_.id("fusion.shared_issue");
    ids_.issueAlu = stats_.id("issue.alu");
    ids_.issueMul = stats_.id("issue.mul");
    ids_.issueDiv = stats_.id("issue.div");
    ids_.issueFp = stats_.id("issue.fp");
    ids_.issueVsuInt = stats_.id("issue.vsu_int");
    ids_.issueLd = stats_.id("issue.ld");
    ids_.issueSt = stats_.id("issue.st");
    ids_.issueBr = stats_.id("issue.br");
    ids_.issueMma = stats_.id("issue.mma");
    ids_.issueTotal = stats_.id("issue.total");
    ids_.lsuLd = stats_.id("lsu.ld");
    ids_.l1dRead = stats_.id("l1d.read");
    ids_.l1dMiss = stats_.id("l1d.miss");
    ids_.pfIssued = stats_.id("pf.issued");
    ids_.lsuSt = stats_.id("lsu.st");
    ids_.lsuStMerge = stats_.id("lsu.st_merge");
    ids_.l1dWrite = stats_.id("l1d.write");
    ids_.l1dMissSt = stats_.id("l1d.miss_st");
    ids_.mmaGer = stats_.id("mma.ger");
    ids_.mmaMove = stats_.id("mma.move");
    ids_.vsuFp = stats_.id("vsu.fp");
    ids_.vsuInt = stats_.id("vsu.int");
    ids_.fpScalar = stats_.id("fp.scalar");
    ids_.swAlu = stats_.id("sw.alu");
    ids_.swFp = stats_.id("sw.fp");
    ids_.swVsu = stats_.id("sw.vsu");
    ids_.swLs = stats_.id("sw.ls");
    ids_.swMma = stats_.id("sw.mma");
    ids_.rfWrite = stats_.id("rf.write");
    ids_.commitOp = stats_.id("commit.op");
    for (size_t tier = 0; tier < kHotTiers; ++tier) {
        ids_.l2MissTier[tier] =
            stats_.id("l2.miss.tier" + std::to_string(tier));
        ids_.l1dMissTier[tier] =
            stats_.id("l1d.miss.tier" + std::to_string(tier));
    }
}

CoreModel::~CoreModel() = default;

CacheModel&
CoreModel::arrayState(ArrayId id)
{
    switch (id) {
      case ArrayId::L1I: return l1i_;
      case ArrayId::L1D: return l1d_;
      case ArrayId::L2: return l2_;
      case ArrayId::L3: return l3_;
      case ArrayId::Tlb: return tlb_.tags();
      case ArrayId::Ierat: return ierat_.tags();
      case ArrayId::Derat: return derat_.tags();
    }
    P10_ASSERT(false, "unknown array id");
    return l1i_;
}

int
CoreModel::latencyOf(OpClass op) const
{
    switch (op) {
      case OpClass::IntAlu: return cfg_.aluLat;
      case OpClass::IntMul: return cfg_.mulLat;
      case OpClass::IntDiv: return cfg_.divLat;
      case OpClass::FpScalar: return cfg_.fpLat;
      case OpClass::VsuFp: return cfg_.vsuLat;
      case OpClass::VsuInt: return 3;
      case OpClass::MmaGer: return cfg_.mmaLat;
      case OpClass::MmaMove: return 2;
      case OpClass::Branch:
      case OpClass::BranchIndirect: return 2;
      case OpClass::CryptoDfu: return 8;
      case OpClass::System: return 6;
      default: return 1;
    }
}

uint64_t
CoreModel::missLatency(uint64_t addr, uint64_t when, bool isInstr,
                       uint8_t tier)
{
    // L2 lookup (bandwidth-limited array port).
    stats_.add(ids_.l2Access);
    uint64_t start = l2Server_.serve(when);
    uint64_t queue = start - when;
    if (infiniteL2_ || l2_.access(addr))
        return queue + cfg_.l2.latency;
    stats_.add(ids_.l2Miss);
    if (tier != 0xff) {
        if (tier < kHotTiers)
            stats_.add(ids_.l2MissTier[tier]);
        else
            stats_.add("l2.miss.tier" + std::to_string(tier));
    }

    stats_.add(ids_.l3Access);
    uint64_t l3start = l3Server_.serve(start + cfg_.l2.latency);
    queue = l3start - when;
    if (l3_.access(addr)) {
        l2_.install(addr); // inclusive fill
        return queue + cfg_.l3.latency;
    }
    stats_.add(ids_.l3Miss);

    stats_.add(ids_.memAccess);
    if (isInstr)
        stats_.add(ids_.memAccessInstr);
    uint64_t mstart = memServer_.serve(l3start + cfg_.l3.latency);
    queue = mstart - when;
    l3_.install(addr);
    l2_.install(addr);
    return queue + cfg_.memLatency;
}

uint64_t
CoreModel::translate(ThreadState& ts, uint64_t addr, bool isInstr)
{
    (void)ts;
    TranslationCache& erat = isInstr ? ierat_ : derat_;
    stats_.add(isInstr ? ids_.ieratAccess : ids_.deratAccess);
    if (erat.access(addr))
        return 0;
    stats_.add(isInstr ? ids_.ieratMiss : ids_.deratMiss);
    stats_.add(ids_.tlbAccess);
    if (tlb_.access(addr))
        return cfg_.eratMissPenalty;
    stats_.add(ids_.tlbMiss);
    return cfg_.eratMissPenalty + cfg_.tlbMissPenalty;
}

uint64_t
CoreModel::fetchCycle(ThreadState& ts, const TraceInstr& in)
{
    uint64_t f = ts.nextFetch;
    // Frontend decoupling is bounded by the instruction buffer: fetch
    // stalls when it runs a buffer's worth of instructions ahead of
    // dispatch. Without this backpressure a mispredict redirect would
    // cost the entire (unbounded) fetch-to-resolve slack.
    if (ts.fetchBuf.full()) {
        f = std::max(f, ts.fetchBuf.front());
        ts.fetchBuf.popFront();
    }
    uint64_t line = in.pc / cfg_.l1i.lineSize;
    if (line != ts.lastILine) {
        stats_.add(ids_.fetchLine);
        // RA-tagged L1I (POWER9): translate on every line fetch.
        if (!cfg_.eaTaggedL1)
            f += translate(ts, in.pc, true);
        if (!l1i_.access(in.pc)) {
            stats_.add(ids_.l1iMiss);
            // EA-tagged L1I (POWER10): translate only on the miss.
            if (cfg_.eaTaggedL1)
                f += translate(ts, in.pc, true);
            f += cfg_.l1i.latency + missLatency(in.pc, f, true);
        }
        ts.lastILine = line;
    }
    f = fetchRing_.record(f);
    // An 8-byte prefixed instruction occupies two fetch slots.
    if (in.prefixed) {
        fetchRing_.record(f);
        stats_.add(ids_.fetchPrefix);
    }
    ts.nextFetch = f;
    stats_.add(ids_.fetchInstr);
    return f;
}

void
CoreModel::resolveBranch(int t, ThreadState& ts, const TraceInstr& in,
                         uint64_t fetched, uint64_t resolve)
{
    stats_.add(ids_.bpLookup);
    bool predTaken = bp_.predictDirection(in.pc, t);
    bool mispredict = predTaken != in.taken;
    if (in.op == OpClass::BranchIndirect) {
        uint64_t predTarget = bp_.predictIndirect(in.pc, t);
        if (in.taken && predTarget != in.target) {
            mispredict = true;
            stats_.add(ids_.bpIndirectMispredict);
        }
        bp_.updateIndirect(in.pc, in.target, t);
    }
    bp_.updateDirection(in.pc, in.taken, t);

    if (mispredict) {
        stats_.add(ids_.bpMispredict);
        uint64_t redirect = resolve + cfg_.redirectPenalty;
        // Wrong-path instructions are fetched from the mispredicted
        // branch until it resolves; that is the flushed work whose
        // reduction §II-B reports (fetch stops at resolve, so the
        // redirect penalty adds bubbles, not wasted instructions).
        uint64_t span = resolve > fetched ? resolve - fetched : 0;
        uint64_t wasted = span *
            static_cast<uint64_t>(cfg_.fetchWidth) /
            static_cast<uint64_t>(numThreads_);
        stats_.add(ids_.flushWasted, std::min<uint64_t>(wasted, 256));
        // Telemetry: the wrong-path window (mispredicted fetch through
        // redirect) as a duration slice on the flush track.
        if (rec_ != nullptr && measuring_ &&
            fetched >= measureBaseCycle_) {
            rec_->beginSlice(flushSlices_, "flush",
                             fetched - measureBaseCycle_);
            rec_->endSlice(flushSlices_, redirect - measureBaseCycle_);
        }
        if (redirect > ts.nextFetch) {
            stats_.add(ids_.flushStall, redirect - ts.nextFetch);
            ts.nextFetch = redirect;
        }
        ts.lastILine = ~0ull; // refetch after flush
        ts.havePrev = false;  // no fusion across a flush
    } else if (in.taken) {
        ts.nextFetch += static_cast<uint64_t>(cfg_.takenBranchBubble);
    }
}

void
CoreModel::processInstr(int t, const TraceInstr& in)
{
    ThreadState& ts = threads_[static_cast<size_t>(t)];

    // ---------------- Fetch ----------------
    uint64_t f = fetchCycle(ts, in);

    // ---------------- Pre-decode fusion ----------------
    isa::FusionKind fusion = isa::FusionKind::None;
    if (cfg_.fusion && ts.havePrev) {
        fusion = isa::classifyFusion(ts.prev, in);
        if (fusion != isa::FusionKind::None) {
            // Only a fraction of structurally fusible pairs use one of
            // the fusible encodings; the decision is a deterministic
            // property of the static pair.
            uint64_t h = (ts.prev.pc * 0x9e3779b97f4a7c15ull) ^
                         (in.pc * 0xff51afd7ed558ccdull);
            h = (h ^ (h >> 29)) & 1023;
            if (h >= static_cast<uint64_t>(cfg_.fusionCoverage * 1024.0))
                fusion = isa::FusionKind::None;
        }
    }

    if (isa::fusesToSingleOp(fusion)) {
        // The second instruction of the pair is absorbed into the op
        // created for the first: no decode/dispatch/issue resources,
        // results available with the fused op.
        stats_.add(ids_.fusionPair);
        stats_.add(ids_.commitInstr);
        if (in.dest != reg::kNone) {
            ts.regReady[in.dest] = ts.prevComplete;
            ts.regProducer[in.dest] = in.op;
        }
        if (isa::isBranch(in.op))
            resolveBranch(t, ts, in, f, ts.prevComplete);
        if (isa::isStore(in.op))
            stats_.add(ids_.lsuStFused);
        if (measuring_) {
            flops_ += static_cast<uint64_t>(isa::flopsPerInstr(in.op));
            // Boundary stragglers (issued before the measurement base)
            // are excluded from the event trace: clamping them to
            // cycle 0 would pile a false power spike there.
            if (collectTimings_ && ts.prevIssue >= measureBaseCycle_) {
                InstrTiming rec;
                rec.issue = static_cast<uint32_t>(
                    ts.prevIssue - measureBaseCycle_);
                rec.complete = static_cast<uint32_t>(
                    ts.prevComplete > measureBaseCycle_
                        ? ts.prevComplete - measureBaseCycle_ : 0);
                rec.op = in.op;
                rec.toggle = in.toggle;
                rec.thread = static_cast<uint8_t>(t);
                rec.gemm = in.gemm;
                timings_.push_back(rec);
            }
        }
        ++ts.instrs;
        // An absorbed op cannot itself host a further fusion.
        ts.havePrev = false;
        return;
    }

    // ---------------- Decode ----------------
    uint64_t d = std::max(f + 1, ts.lastDecode);
    d = decodeRing_.record(d);
    if (in.prefixed) {
        if (cfg_.prefixSupport) {
            // Prefix fusion: the pair decodes as one internal op.
            stats_.add(ids_.decodePrefixFused);
        } else {
            // Legacy cracking: prefix and suffix each take a slot.
            decodeRing_.record(d);
            stats_.add(ids_.decodeCracked);
        }
    }
    ts.lastDecode = d;
    stats_.add(ids_.decodeOp);

    // ---------------- Dispatch (structure allocation) ----------------
    uint64_t disp = d + static_cast<uint64_t>(cfg_.frontendStages - 2);
    if (ts.rob.full()) {
        disp = std::max(disp, ts.rob.front());
        ts.rob.popFront();
    }
    if (isa::isLoad(in.op) && ts.ldq.full()) {
        disp = std::max(disp, ts.ldq.front());
        ts.ldq.popFront();
    }
    bool takesStqEntry = isa::isStore(in.op);
    if (takesStqEntry && ts.stq.full()) {
        disp = std::max(disp, ts.stq.front());
        ts.stq.popFront();
    }
    disp = dispatchRing_.record(disp);
    ts.fetchBuf.pushBack(disp);
    stats_.add(ids_.dispatchOp);
    // Branch-free: a destination-less op adds 0.
    stats_.add(ids_.renameWrite,
               static_cast<uint64_t>(in.dest != reg::kNone));

    // ---------------- Operand readiness ----------------
    uint64_t ready = disp + 1;
    for (uint16_t s : in.src) {
        if (s == reg::kNone)
            continue;
        stats_.add(ids_.rfRead);
        uint64_t r;
        if (in.op == OpClass::MmaGer && s >= reg::kAccBase &&
            s == in.dest) {
            // ger-to-ger accumulate chains forward inside the MMA unit.
            r = ts.accChain[s - reg::kAccBase];
        } else {
            r = ts.regReady[s];
            if (isa::isVsu(in.op) && cfg_.loadToVsuPenalty > 0 &&
                isa::isLoad(ts.regProducer[s])) {
                r += static_cast<uint64_t>(cfg_.loadToVsuPenalty);
            }
        }
        ready = std::max(ready, r);
    }
    if (fusion == isa::FusionKind::SharedIssue) {
        // Dependent pair sharing an issue entry: optimized wakeup lets
        // the consumer issue right behind the producer.
        ready = std::max(disp + 1, ts.prevIssue + 1);
        stats_.add(ids_.fusionSharedIssue);
    }

    // ---------------- Issue (port + width arbitration) ----------------
    ThrottleRing* port = nullptr;
    common::StatId issueStat = ids_.issueAlu;
    switch (in.op) {
      case OpClass::IntAlu:
        port = &aluRing_; issueStat = ids_.issueAlu; break;
      case OpClass::IntMul:
        port = &aluRing_; issueStat = ids_.issueMul; break;
      case OpClass::IntDiv:
        port = &aluRing_; issueStat = ids_.issueDiv; break;
      case OpClass::FpScalar:
      case OpClass::VsuFp:
        port = &fpRing_; issueStat = ids_.issueFp; break;
      case OpClass::VsuInt:
      case OpClass::CryptoDfu:
        port = &vsuIntRing_; issueStat = ids_.issueVsuInt; break;
      case OpClass::Load:
      case OpClass::Load32B:
        port = &ldRing_; issueStat = ids_.issueLd; break;
      case OpClass::Store:
      case OpClass::Store32B:
        port = &stRing_; issueStat = ids_.issueSt; break;
      case OpClass::Branch:
      case OpClass::BranchIndirect:
        port = &brRing_; issueStat = ids_.issueBr; break;
      case OpClass::MmaGer:
      case OpClass::MmaMove:
        port = &mmaRing_; issueStat = ids_.issueMma; break;
      default:
        port = &aluRing_; issueStat = ids_.issueAlu; break;
    }
    bool needsLsShared = lsCombinedRing_ &&
        (isa::isLoad(in.op) || isa::isStore(in.op) || isa::isVsu(in.op) ||
         in.op == OpClass::FpScalar);

    uint64_t issue = ready;
    while (true) {
        issue = port->findFree(issue);
        if (!issueRing_.hasRoom(issue)) {
            issue = issueRing_.findFree(issue);
            continue;
        }
        if (needsLsShared && !lsCombinedRing_->hasRoom(issue)) {
            issue = lsCombinedRing_->findFree(issue);
            continue;
        }
        break;
    }
    port->claimAt(issue);
    issueRing_.claimAt(issue);
    if (needsLsShared)
        lsCombinedRing_->claimAt(issue);
    stats_.add(issueStat);
    stats_.add(ids_.issueTotal);

    // ---------------- Execute ----------------
    uint64_t complete = issue + static_cast<uint64_t>(latencyOf(in.op));

    if (isa::isLoad(in.op)) {
        stats_.add(ids_.lsuLd);
        stats_.add(ids_.l1dRead);
        if (!cfg_.eaTaggedL1)
            complete += translate(ts, in.addr, false);
        uint64_t line = in.addr / cfg_.l1d.lineSize;
        if (l1d_.access(in.addr)) {
            complete = issue + cfg_.l1d.latency;
        } else {
            stats_.add(ids_.l1dMiss);
            if (in.memTier != 0xff) {
                if (in.memTier < kHotTiers)
                    stats_.add(ids_.l1dMissTier[in.memTier]);
                else
                    stats_.add("l1d.miss.tier" +
                               std::to_string(in.memTier));
            }
            if (cfg_.eaTaggedL1)
                complete += translate(ts, in.addr, false);
            // Load-miss queue occupancy (a shared structure: misses
            // from every thread draw on the same entries).
            uint64_t extra = 0;
            if (lmq_.full()) {
                if (lmq_.front() > issue)
                    extra = lmq_.front() - issue;
                lmq_.popFront();
            }
            complete = issue + cfg_.l1d.latency + extra +
                       missLatency(in.addr, issue + extra, false,
                                   in.memTier);
            // The LMQ entry hands off to the L2/L3 miss machinery once
            // the L2 responds; long fills park in the deeper queues
            // modeled by the bandwidth servers.
            lmq_.pushBack(std::min<uint64_t>(
                complete, issue + extra + cfg_.l2.latency + 4));

            prefetcher_.onMiss(line, pfScratch_);
            for (uint64_t pfLine : pfScratch_) {
                stats_.add(ids_.pfIssued);
                l1d_.install(pfLine * cfg_.l1d.lineSize);
                l2_.install(pfLine * cfg_.l1d.lineSize);
            }
        }
        ts.ldq.pushBack(complete);
        stats_.add(ids_.swLs, toggleWeight(in.toggle));
    } else if (isa::isStore(in.op)) {
        stats_.add(ids_.lsuSt);
        complete = issue + 1; // AGEN; data drains post-commit
        if (!cfg_.eaTaggedL1)
            complete += translate(ts, in.addr, false);
        uint64_t line = in.addr / cfg_.l1d.lineSize;
        if (cfg_.storeMerge && line == ts.lastStoreLine) {
            // Gathered into the neighbouring STQ entry: no extra L1
            // write or RFO traffic.
            stats_.add(ids_.lsuStMerge);
        } else {
            stats_.add(ids_.l1dWrite);
            if (!l1d_.access(in.addr)) {
                stats_.add(ids_.l1dMissSt);
                // Write-allocate fill charged to the bandwidth servers
                // only; the store itself does not stall.
                (void)missLatency(in.addr, complete, false, in.memTier);
            }
        }
        ts.lastStoreLine = line;
        stats_.add(ids_.swLs, toggleWeight(in.toggle));
    } else if (in.op == OpClass::MmaGer) {
        stats_.add(ids_.mmaGer);
        stats_.add(ids_.swMma, toggleWeight(in.toggle));
        if (in.dest >= reg::kAccBase)
            ts.accChain[in.dest - reg::kAccBase] =
                issue + static_cast<uint64_t>(cfg_.mmaAccLat);
    } else if (in.op == OpClass::MmaMove) {
        stats_.add(ids_.mmaMove);
    } else if (in.op == OpClass::VsuFp) {
        stats_.add(ids_.vsuFp);
        stats_.add(ids_.swVsu, toggleWeight(in.toggle));
    } else if (in.op == OpClass::VsuInt) {
        stats_.add(ids_.vsuInt);
        stats_.add(ids_.swVsu, toggleWeight(in.toggle));
    } else if (in.op == OpClass::FpScalar) {
        stats_.add(ids_.fpScalar);
        stats_.add(ids_.swFp, toggleWeight(in.toggle));
    } else {
        stats_.add(ids_.swAlu, toggleWeight(in.toggle));
    }

    if (isa::isBranch(in.op))
        resolveBranch(t, ts, in, f, complete);

    // ---------------- Writeback ----------------
    if (in.dest != reg::kNone) {
        ts.regReady[in.dest] = complete;
        ts.regProducer[in.dest] = in.op;
        stats_.add(ids_.rfWrite);
    }

    // ---------------- Commit ----------------
    uint64_t cm = std::max(complete + 1, ts.lastCommit);
    cm = commitRing_.record(cm);
    ts.lastCommit = cm;
    ts.rob.pushBack(cm);
    if (takesStqEntry)
        ts.stq.pushBack(cm + 2); // drain to L1 shortly after commit
    stats_.add(ids_.commitInstr);
    stats_.add(ids_.commitOp);

    if (measuring_) {
        ++opsCommitted_;
        flops_ += static_cast<uint64_t>(isa::flopsPerInstr(in.op));
        if (collectTimings_ && issue >= measureBaseCycle_) {
            InstrTiming rec;
            rec.issue =
                static_cast<uint32_t>(issue - measureBaseCycle_);
            rec.complete = static_cast<uint32_t>(
                complete > measureBaseCycle_
                    ? complete - measureBaseCycle_ : 0);
            rec.op = in.op;
            rec.toggle = in.toggle;
            rec.thread = static_cast<uint8_t>(t);
            rec.gemm = in.gemm;
            timings_.push_back(rec);
        }
    }
    ++ts.instrs;

    ts.havePrev = true;
    ts.prev = in;
    ts.prevIssue = issue;
    ts.prevComplete = complete;
    // A taken branch ends the sequential pair window.
    if (isa::isBranch(in.op) && in.taken)
        ts.havePrev = false;
}

void
CoreModel::maybeSample(uint64_t /*i*/)
{
    uint64_t front = 0;
    for (const ThreadState& ts : threads_)
        front = std::max(front, ts.lastCommit);
    if (front <= measureBaseCycle_)
        return;
    uint64_t rel = front - measureBaseCycle_;
    const uint64_t interval = rec_->interval();
    while (rel >= nextSampleCycle_) {
        uint64_t commits = stats_.get(ids_.commitInstr);
        double ipc = static_cast<double>(commits - lastSampleCommits_) /
                     static_cast<double>(interval);
        lastSampleCommits_ = commits;
        size_t rob = 0, ldq = 0, stq = 0, ibuf = 0;
        for (const ThreadState& ts : threads_) {
            rob += ts.rob.size();
            ldq += ts.ldq.size();
            stq += ts.stq.size();
            ibuf += ts.fetchBuf.size();
        }
        rec_->sample(ipcTrack_, nextSampleCycle_, ipc);
        rec_->sample(robTrack_, nextSampleCycle_,
                     static_cast<double>(rob));
        rec_->sample(ldqTrack_, nextSampleCycle_,
                     static_cast<double>(ldq));
        rec_->sample(stqTrack_, nextSampleCycle_,
                     static_cast<double>(stq));
        rec_->sample(ibufTrack_, nextSampleCycle_,
                     static_cast<double>(ibuf));
        nextSampleCycle_ += interval;
    }
}

void
CoreModel::beginRun(const std::vector<workloads::InstrSource*>& sources,
                    bool infiniteL2)
{
    P10_ASSERT(!sources.empty(), "no instruction sources");
    numThreads_ = static_cast<int>(sources.size());
    collectTimings_ = false;
    measuring_ = false;
    infiniteL2_ = infiniteL2;

    // Queue capacities are a pure function of (config, SMT level), so
    // they are resolved once here instead of on every instruction.
    ibufCap_ = static_cast<size_t>(
        std::max(8, cfg_.ibufferEntries / numThreads_));
    robCap_ = static_cast<size_t>(
        std::max(1, cfg_.robSize / numThreads_));
    ldqCap_ = static_cast<size_t>(
        std::max(1, cfg_.ldqPerThread(numThreads_)));
    stqCap_ = static_cast<size_t>(
        std::max(1, cfg_.stqPerThread(numThreads_)));
    lmq_.reset(static_cast<size_t>(std::max(1, cfg_.lmqSize)));

    threads_.clear();
    threads_.resize(sources.size());
    for (size_t i = 0; i < sources.size(); ++i) {
        ThreadState& ts = threads_[i];
        ts.src = sources[i];
        ts.fetchBuf.reset(ibufCap_);
        ts.rob.reset(robCap_);
        ts.ldq.reset(ldqCap_);
        ts.stq.reset(stqCap_);
    }
}

void
CoreModel::stepOne()
{
    // Single-thread fast path: no arbitration to run.
    if (numThreads_ == 1) {
        processInstr(0, threads_[0].src->next());
        return;
    }
    // Earliest-fetch-first SMT arbitration.
    int pick = 0;
    uint64_t best = threads_[0].nextFetch;
    for (int t = 1; t < numThreads_; ++t) {
        if (threads_[static_cast<size_t>(t)].nextFetch < best) {
            best = threads_[static_cast<size_t>(t)].nextFetch;
            pick = t;
        }
    }
    TraceInstr in = threads_[static_cast<size_t>(pick)].src->next();
    processInstr(pick, in);
}

uint64_t
CoreModel::commitFrontCycle() const
{
    uint64_t front = 0;
    for (const ThreadState& ts : threads_)
        front = std::max(front, ts.lastCommit);
    return front;
}

void
CoreModel::advance(uint64_t instrs)
{
    P10_ASSERT(!threads_.empty(), "advance before beginRun");
    P10_ASSERT(!measuring_, "advance inside a measurement window");
    // Warmup: trains caches, predictors, prefetch streams. The
    // single-thread source is hoisted out of the loop (the warmup is
    // as hot as the measured window).
    if (numThreads_ == 1) {
        workloads::InstrSource* src = threads_[0].src;
        for (uint64_t i = 0; i < instrs; ++i)
            processInstr(0, src->next());
        return;
    }
    for (uint64_t i = 0; i < instrs; ++i)
        stepOne();
}

RunResult
CoreModel::run(const std::vector<workloads::InstrSource*>& sources,
               const RunOptions& opts)
{
    beginRun(sources, opts.infiniteL2);
    advance(opts.warmupInstrs);
    return measure(opts);
}

RunResult
CoreModel::measure(const RunOptions& opts)
{
    P10_ASSERT(!threads_.empty(), "measure before beginRun");
    infiniteL2_ = opts.infiniteL2;

    uint64_t baseCycle = 0;
    uint64_t baseInstrs = 0;
    for (const ThreadState& ts : threads_) {
        baseCycle = std::max(baseCycle, ts.lastCommit);
        baseInstrs += ts.instrs;
    }
    common::StatSnapshot baseStats = stats_.snapshot();

    measuring_ = true;
    measureBaseCycle_ = baseCycle;
    collectTimings_ = opts.collectTimings;
    timings_.clear();
    opsCommitted_ = 0;
    flops_ = 0;

    rec_ = opts.recorder;
    if (rec_ != nullptr) {
        ipcTrack_ = rec_->counter("core.ipc", "ipc");
        robTrack_ = rec_->counter("core.occ.rob", "entries");
        ldqTrack_ = rec_->counter("core.occ.ldq", "entries");
        stqTrack_ = rec_->counter("core.occ.stq", "entries");
        ibufTrack_ = rec_->counter("core.occ.ibuf", "entries");
        flushSlices_ = rec_->slices("core.flush");
        nextSampleCycle_ = rec_->interval();
        lastSampleCommits_ = stats_.get(ids_.commitInstr);
    }

    bool timedOut = false;
    const bool plainLoop =
        !opts.onInject && rec_ == nullptr && opts.maxCycles == 0;
    if (plainLoop) {
        // No per-instruction conditionals in the common sweep/bench
        // configuration: the hooks above are all inactive, so the loop
        // reduces to the bare instruction step — same processInstr
        // sequence, byte-identical results.
        if (numThreads_ == 1) {
            workloads::InstrSource* src = threads_[0].src;
            for (uint64_t i = 0; i < opts.measureInstrs; ++i)
                processInstr(0, src->next());
        } else {
            for (uint64_t i = 0; i < opts.measureInstrs; ++i)
                stepOne();
        }
    } else {
        for (uint64_t i = 0; i < opts.measureInstrs; ++i) {
            if (opts.onInject && i == opts.injectAtInstr)
                opts.onInject(*this);
            stepOne();
            if (rec_ != nullptr)
                maybeSample(i);
            // Cycle-budget guard: checked on the commit front so a run
            // whose progress collapses (fault campaigns, degenerate
            // configs) stops instead of burning the whole sweep's time.
            if (opts.maxCycles != 0 && (i & 0x3f) == 0) {
                uint64_t front = 0;
                for (const ThreadState& ts : threads_)
                    front = std::max(front, ts.lastCommit);
                if (front - baseCycle > opts.maxCycles) {
                    timedOut = true;
                    break;
                }
            }
        }
    }

    RunResult result;
    result.timedOut = timedOut;
    uint64_t endCycle = 0;
    uint64_t endInstrs = 0;
    for (const ThreadState& ts : threads_) {
        endCycle = std::max(endCycle, ts.lastCommit);
        endInstrs += ts.instrs;
    }
    if (rec_ != nullptr) {
        rec_->closeOpenSlices(endCycle > baseCycle ? endCycle - baseCycle
                                                   : 0);
        rec_ = nullptr;
    }
    result.cycles = endCycle > baseCycle ? endCycle - baseCycle : 1;
    result.instrs = endInstrs - baseInstrs;
    result.ops = opsCommitted_;
    result.flops = flops_;
    result.stats = common::StatRegistry::delta(baseStats,
                                               stats_.snapshot());
    result.stats["cycles"] = result.cycles;
    result.timings = std::move(timings_);
    return result;
}

// ---- Checkpoint surface ----

namespace {

void
saveInstr(common::BinWriter& w, const TraceInstr& in)
{
    w.u8(static_cast<uint8_t>(in.op));
    for (uint16_t s : in.src)
        w.u16(s);
    w.u16(in.dest);
    w.u64(in.pc);
    w.u64(in.addr);
    w.u16(in.size);
    w.u8(in.memTier);
    w.b(in.taken);
    w.u64(in.target);
    w.b(in.prefixed);
    w.b(in.gemm);
    w.f32(in.toggle);
}

common::Status
loadInstr(common::BinReader& r, TraceInstr& in)
{
    uint8_t op = r.u8();
    if (r.failed() ||
        op >= static_cast<uint8_t>(OpClass::NumOpClasses))
        return common::Error::invalidArgument(
            "instruction op class out of range");
    in.op = static_cast<OpClass>(op);
    for (auto& s : in.src)
        s = r.u16();
    in.dest = r.u16();
    in.pc = r.u64();
    in.addr = r.u64();
    in.size = r.u16();
    in.memTier = r.u8();
    in.taken = r.b();
    in.target = r.u64();
    in.prefixed = r.b();
    in.gemm = r.b();
    in.toggle = r.f32();
    return r.status("instruction record");
}

} // namespace

void
CoreModel::saveThread(common::BinWriter& w, const ThreadState& ts) const
{
    w.u64(ts.nextFetch);
    w.u64(ts.lastDecode);
    w.u64(ts.lastCommit);
    w.u64(ts.instrs);
    for (uint64_t v : ts.regReady)
        w.u64(v);
    for (OpClass p : ts.regProducer)
        w.u8(static_cast<uint8_t>(p));
    for (uint64_t v : ts.accChain)
        w.u64(v);
    ts.rob.saveState(w);
    ts.fetchBuf.saveState(w);
    ts.ldq.saveState(w);
    ts.stq.saveState(w);
    w.u64(ts.lastILine);
    w.u64(ts.lastStoreLine);
    w.b(ts.havePrev);
    saveInstr(w, ts.prev);
    w.u64(ts.prevIssue);
    w.u64(ts.prevComplete);
}

common::Status
CoreModel::loadThread(common::BinReader& r, ThreadState& ts)
{
    ts.nextFetch = r.u64();
    ts.lastDecode = r.u64();
    ts.lastCommit = r.u64();
    ts.instrs = r.u64();
    for (auto& v : ts.regReady)
        v = r.u64();
    for (auto& p : ts.regProducer) {
        uint8_t raw = r.u8();
        if (!r.failed() &&
            raw >= static_cast<uint8_t>(OpClass::NumOpClasses))
            return common::Error::invalidArgument(
                "register producer op class out of range");
        p = static_cast<OpClass>(raw);
    }
    for (auto& v : ts.accChain)
        v = r.u64();
    if (auto st = ts.rob.loadState(r); !st.ok())
        return st;
    if (auto st = ts.fetchBuf.loadState(r); !st.ok())
        return st;
    if (auto st = ts.ldq.loadState(r); !st.ok())
        return st;
    if (auto st = ts.stq.loadState(r); !st.ok())
        return st;
    ts.lastILine = r.u64();
    ts.lastStoreLine = r.u64();
    ts.havePrev = r.b();
    if (auto st = loadInstr(r, ts.prev); !st.ok())
        return st;
    ts.prevIssue = r.u64();
    ts.prevComplete = r.u64();
    // Every restored cycle feeds later ring claims: keep a forged
    // checkpoint a structured error, never an abort in claimAt.
    auto inRange = [](uint64_t c) { return c < kRestoredCycleLimit; };
    if (!inRange(ts.nextFetch) || !inRange(ts.lastDecode) ||
        !inRange(ts.lastCommit) || !inRange(ts.prevIssue) ||
        !inRange(ts.prevComplete) ||
        !std::all_of(ts.regReady.begin(), ts.regReady.end(), inRange) ||
        !std::all_of(ts.accChain.begin(), ts.accChain.end(), inRange))
        return common::Error::invalidArgument(
            "thread state cycle beyond the cycle range");
    return r.status("thread state");
}

void
CoreModel::saveState(common::BinWriter& w) const
{
    P10_ASSERT(!threads_.empty(), "saveState before beginRun");
    P10_ASSERT(!measuring_, "saveState inside a measurement window");

    w.u32(static_cast<uint32_t>(numThreads_));

    // The sw.* switching-activity counters are excluded from the
    // snapshot (state-schema v2): they never feed forward into timing.
    // Measurement deltas are unchanged — delta() treats absent-in-base
    // as zero, so a restored run re-accumulates the measured window's
    // switching activity exactly as a cold run's delta reports it.
    common::StatSnapshot snap = stats_.snapshot();
    uint64_t kept = 0;
    for (const auto& [name, value] : snap)
        if (name.rfind("sw.", 0) != 0)
            ++kept;
    w.u64(kept);
    for (const auto& [name, value] : snap) {
        if (name.rfind("sw.", 0) == 0)
            continue;
        w.str(name);
        w.u64(value);
    }

    l1i_.saveState(w);
    l1d_.saveState(w);
    l2_.saveState(w);
    l3_.saveState(w);
    ierat_.saveState(w);
    derat_.saveState(w);
    tlb_.saveState(w);
    bp_.saveState(w);
    prefetcher_.saveState(w);
    lmq_.saveState(w);

    // Every future ring probe happens at a cycle >= the fetch cycle of
    // the next processed instruction, which is >= the minimum nextFetch
    // across threads (nextFetch is monotonic per thread), so slots
    // stamped below that horizon are dead and need not be saved.
    uint64_t minCycle = ~0ull;
    for (const ThreadState& ts : threads_)
        minCycle = std::min(minCycle, ts.nextFetch);
    fetchRing_.saveState(w, minCycle);
    decodeRing_.saveState(w, minCycle);
    dispatchRing_.saveState(w, minCycle);
    issueRing_.saveState(w, minCycle);
    commitRing_.saveState(w, minCycle);
    aluRing_.saveState(w, minCycle);
    fpRing_.saveState(w, minCycle);
    vsuIntRing_.saveState(w, minCycle);
    ldRing_.saveState(w, minCycle);
    stRing_.saveState(w, minCycle);
    brRing_.saveState(w, minCycle);
    mmaRing_.saveState(w, minCycle);
    w.b(lsCombinedRing_ != nullptr);
    if (lsCombinedRing_)
        lsCombinedRing_->saveState(w, minCycle);

    l2Server_.saveState(w);
    l3Server_.saveState(w);
    memServer_.saveState(w);

    for (const ThreadState& ts : threads_)
        saveThread(w, ts);
}

common::Status
CoreModel::loadState(common::BinReader& r)
{
    P10_ASSERT(!threads_.empty(), "loadState before beginRun");

    uint32_t nThreads = r.u32();
    if (r.failed() || nThreads != static_cast<uint32_t>(numThreads_))
        return common::Error::invalidArgument(
            "checkpoint thread count mismatch");

    uint64_t nStats = r.u64();
    // Name + value cost at least 12 bytes per entry (u32 length + u64).
    if (!r.fits(nStats, 12))
        return r.status("stat snapshot");
    common::StatSnapshot snap;
    for (uint64_t i = 0; i < nStats; ++i) {
        std::string name = r.str();
        uint64_t value = r.u64();
        if (r.failed())
            return r.status("stat snapshot");
        snap[name] = value;
    }
    stats_.restore(snap);

    if (auto st = l1i_.loadState(r); !st.ok())
        return st;
    if (auto st = l1d_.loadState(r); !st.ok())
        return st;
    if (auto st = l2_.loadState(r); !st.ok())
        return st;
    if (auto st = l3_.loadState(r); !st.ok())
        return st;
    if (auto st = ierat_.loadState(r); !st.ok())
        return st;
    if (auto st = derat_.loadState(r); !st.ok())
        return st;
    if (auto st = tlb_.loadState(r); !st.ok())
        return st;
    if (auto st = bp_.loadState(r); !st.ok())
        return st;
    if (auto st = prefetcher_.loadState(r); !st.ok())
        return st;
    if (auto st = lmq_.loadState(r); !st.ok())
        return st;

    ThrottleRing* rings[] = {&fetchRing_, &decodeRing_, &dispatchRing_,
                             &issueRing_, &commitRing_, &aluRing_,
                             &fpRing_, &vsuIntRing_, &ldRing_, &stRing_,
                             &brRing_, &mmaRing_};
    for (ThrottleRing* ring : rings)
        if (auto st = ring->loadState(r); !st.ok())
            return st;
    bool hasLsCombined = r.b();
    if (r.failed() || hasLsCombined != (lsCombinedRing_ != nullptr))
        return common::Error::invalidArgument(
            "combined load/store ring presence mismatch");
    if (lsCombinedRing_)
        if (auto st = lsCombinedRing_->loadState(r); !st.ok())
            return st;

    if (auto st = l2Server_.loadState(r); !st.ok())
        return st;
    if (auto st = l3Server_.loadState(r); !st.ok())
        return st;
    if (auto st = memServer_.loadState(r); !st.ok())
        return st;

    for (ThreadState& ts : threads_)
        if (auto st = loadThread(r, ts); !st.ok())
            return st;
    return r.status("core state");
}

} // namespace p10ee::core
