/**
 * @file
 * CoreConfig validation: the gate between user input and the models.
 *
 * Every field that would later trip a P10_ASSERT inside CoreModel,
 * EnergyModel or SerMiner is checked here with a structured error, so
 * malformed user configurations surface as recoverable Error values
 * (one message listing every violation) instead of aborting deep in
 * the stack.
 */

#include <cstdint>
#include <string>

#include "core/config.h"
#include "core/rings.h"

namespace p10ee::core {

namespace {

bool
powerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Append "field=value out of [lo,hi]"-style clauses to @p out. */
class Checker
{
  public:
    void
    require(bool ok, const std::string& clause)
    {
        if (ok)
            return;
        if (!msg_.empty())
            msg_ += "; ";
        msg_ += clause;
    }

    void
    inRange(const char* field, double v, double lo, double hi)
    {
        require(v >= lo && v <= hi,
                std::string(field) + "=" + std::to_string(v) +
                    " outside [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]");
    }

    void
    atLeast(const char* field, long long v, long long lo)
    {
        require(v >= lo, std::string(field) + "=" + std::to_string(v) +
                             " must be >= " + std::to_string(lo));
    }

    void
    cache(const char* name, const CacheParams& p)
    {
        std::string n(name);
        require(p.sizeBytes > 0, n + ".sizeBytes must be > 0");
        require(p.ways > 0, n + ".ways must be > 0");
        require(powerOfTwo(p.lineSize) && p.lineSize >= 8,
                n + ".lineSize must be a power of two >= 8");
        if (p.sizeBytes > 0 && p.ways > 0 && p.lineSize > 0)
            require(p.sizeBytes / p.lineSize >= p.ways,
                    n + " smaller than one set (" +
                        std::to_string(p.sizeBytes) + "B, " +
                        std::to_string(p.ways) + " ways of " +
                        std::to_string(p.lineSize) + "B lines)");
        require(p.latency >= 1, n + ".latency must be >= 1");
        require(p.occupancy >= 1, n + ".occupancy must be >= 1");
    }

    /** Each width sizes a ThrottleRing, whose 8-bit count caps it. */
    void
    ringWidth(const char* field, int v, int lo)
    {
        require(v >= lo && v <= ThrottleRing::kMaxWidth,
                std::string(field) + "=" + std::to_string(v) +
                    " outside [" + std::to_string(lo) + ", " +
                    std::to_string(ThrottleRing::kMaxWidth) + "]");
    }

    /** Table-size exponents allocate 1<<bits entries; bound them. */
    void
    tableBits(const char* field, int bits)
    {
        require(bits >= 1 && bits <= 26,
                std::string(field) + "=" + std::to_string(bits) +
                    " outside [1, 26] (allocates 1<<bits entries)");
    }

    bool ok() const { return msg_.empty(); }
    const std::string& message() const { return msg_; }

  private:
    std::string msg_;
};

} // namespace

common::Status
CoreConfig::validate() const
{
    Checker c;

    // Front end.
    c.ringWidth("fetchWidth", fetchWidth, 1);
    c.ringWidth("decodeWidth", decodeWidth, 1);
    c.atLeast("frontendStages", frontendStages, 1);
    c.atLeast("ibufferEntries", ibufferEntries, 1);
    c.atLeast("redirectPenalty", redirectPenalty, 0);
    c.atLeast("takenBranchBubble", takenBranchBubble, 0);
    c.inRange("fusionCoverage", fusionCoverage, 0.0, 1.0);

    // Branch predictor geometry (vector sizes are 1<<bits).
    c.tableBits("bp.bimodalBits", bp.bimodalBits);
    c.tableBits("bp.gshareBits", bp.gshareBits);
    c.inRange("bp.gshareHist", bp.gshareHist, 0, 63);
    if (bp.secondGshare) {
        c.tableBits("bp.gshare2Bits", bp.gshare2Bits);
        c.inRange("bp.gshare2Hist", bp.gshare2Hist, 0, 63);
    }
    if (bp.localPattern) {
        c.tableBits("bp.localBits", bp.localBits);
        c.inRange("bp.localHistBits", bp.localHistBits, 1, 16);
    }
    c.tableBits("bp.choiceBits", bp.choiceBits);
    c.tableBits("bp.indirectBits", bp.indirectBits);
    c.atLeast("bp.indirectWays", bp.indirectWays, 1);

    // Caches and translation.
    c.cache("l1i", l1i);
    c.cache("l1d", l1d);
    c.cache("l2", l2);
    c.cache("l3", l3);
    c.atLeast("memLatency", memLatency, 1);
    c.atLeast("memOccupancy", memOccupancy, 1);
    c.atLeast("eratEntries", eratEntries, 1);
    c.atLeast("tlbEntries", tlbEntries, 1);
    c.require(powerOfTwo(pageBytes) && pageBytes >= 4096,
              "pageBytes must be a power of two >= 4096");

    // Backend structures.
    c.atLeast("robSize", robSize, 1);
    c.atLeast("ldqSize", ldqSize, 1);
    c.atLeast("ldqSizeSmt", ldqSizeSmt, 1);
    c.atLeast("stqSize", stqSize, 1);
    c.atLeast("stqSizeSmt", stqSizeSmt, 1);
    c.atLeast("lmqSize", lmqSize, 1);
    c.ringWidth("dispatchWidth", dispatchWidth, 1);
    c.ringWidth("commitWidth", commitWidth, 1);
    c.ringWidth("issueWidth", issueWidth, 1);

    // Issue ports: every ThrottleRing the core constructs needs a
    // width in [1, 255]; mmaUnits and lsCombined may be 0 (feature off).
    c.ringWidth("aluPorts", aluPorts, 1);
    c.ringWidth("fpPorts", fpPorts, 1);
    c.ringWidth("vsuIntPorts", vsuIntPorts, 1);
    c.ringWidth("ldPorts", ldPorts, 1);
    c.ringWidth("stPorts", stPorts, 1);
    c.ringWidth("brPorts", brPorts, 1);
    c.ringWidth("mmaUnits", mmaUnits, 0);
    c.ringWidth("lsCombined", lsCombined, 0);

    // Latencies.
    c.atLeast("aluLat", aluLat, 1);
    c.atLeast("mulLat", mulLat, 1);
    c.atLeast("divLat", divLat, 1);
    c.atLeast("fpLat", fpLat, 1);
    c.atLeast("vsuLat", vsuLat, 1);
    c.atLeast("mmaLat", mmaLat, 1);
    c.atLeast("mmaAccLat", mmaAccLat, 1);
    c.atLeast("loadToVsuPenalty", loadToVsuPenalty, 0);

    // Power-model design-style parameters.
    c.inRange("clockGateQuality", clockGateQuality, 0.0, 1.0);
    c.inRange("dataGateQuality", dataGateQuality, 0.0, 1.0);
    c.require(switchEnergyScale > 0.0, "switchEnergyScale must be > 0");
    c.require(latchClockScale > 0.0, "latchClockScale must be > 0");

    // LSU features.
    c.atLeast("prefetchStreams", prefetchStreams, 1);
    c.atLeast("prefetchDepth", prefetchDepth, 1);

    if (c.ok())
        return common::okStatus();
    std::string prefix =
        name.empty() ? std::string("CoreConfig") : "CoreConfig '" + name +
                                                       "'";
    return common::Error::invalidConfig(prefix + ": " + c.message());
}

} // namespace p10ee::core
