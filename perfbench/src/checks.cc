/** @file Implementation of checks.hh. */

#include "checks.hh"

#include <algorithm>

#include "common.hh"

namespace perfbench
{

std::string
checkCommitBudget(uint64_t target, uint64_t committed, int commitWidth,
                  bool deadlocked)
{
    if (deadlocked)
        return "run deadlocked before its commit target " +
               std::to_string(target);
    if (committed < target)
        return "committed " + std::to_string(committed) +
               " short of target " + std::to_string(target);
    if (committed - target >= static_cast<uint64_t>(commitWidth))
        return "committed " + std::to_string(committed) +
               " overshoots target " + std::to_string(target) +
               " by the commit width or more";
    return {};
}

std::string
checkIpc(uint64_t committed, uint64_t cycles, int commitWidth)
{
    if (cycles == 0)
        return committed ? "committed instructions in zero cycles" : "";
    if (committed > cycles * static_cast<uint64_t>(commitWidth))
        return "IPC " + std::to_string(double(committed) / double(cycles)) +
               " exceeds the commit width " + std::to_string(commitWidth);
    return {};
}

void
OpDigest::add(const diq::trace::MicroOp &op)
{
    const uint8_t cls = static_cast<uint8_t>(op.op);
    const uint8_t taken = op.taken ? 1 : 0;
    h_ = fnvMix(h_, &op.pc, sizeof op.pc);
    h_ = fnvMix(h_, &cls, 1);
    h_ = fnvMix(h_, &op.src1, 1);
    h_ = fnvMix(h_, &op.src2, 1);
    h_ = fnvMix(h_, &op.dest, 1);
    h_ = fnvMix(h_, &op.memAddr, sizeof op.memAddr);
    h_ = fnvMix(h_, &op.memSize, 1);
    h_ = fnvMix(h_, &taken, 1);
    h_ = fnvMix(h_, &op.target, sizeof op.target);
    ++n_;
}

std::string
checkStreamDigest(const std::string &what, uint64_t expected, uint64_t got)
{
    if (expected != got)
        return what + ": retired-stream digest " + std::to_string(got) +
               " differs from the source stream's " +
               std::to_string(expected);
    return {};
}

namespace
{
bool
sameOp(const diq::trace::MicroOp &a, const diq::trace::MicroOp &b)
{
    return a.pc == b.pc && a.op == b.op && a.src1 == b.src1 &&
           a.src2 == b.src2 && a.dest == b.dest && a.memAddr == b.memAddr &&
           a.memSize == b.memSize && a.taken == b.taken &&
           a.target == b.target;
}
} // namespace

std::string
checkSameOps(const std::vector<diq::trace::MicroOp> &want,
             const std::vector<diq::trace::MicroOp> &got)
{
    size_t n = std::min(want.size(), got.size());
    for (size_t i = 0; i < n; ++i)
        if (!sameOp(want[i], got[i]))
            return "op " + std::to_string(i) + " differs: want " +
                   want[i].toString() + ", got " + got[i].toString();
    if (want.size() != got.size())
        return "stream length " + std::to_string(got.size()) +
               " != " + std::to_string(want.size());
    return {};
}

std::string
checkSameBytes(const std::string &what, const std::string &want,
               const std::string &got)
{
    auto [wi, gi] = std::mismatch(want.begin(), want.end(), got.begin(),
                                  got.end());
    if (wi == want.end() && gi == got.end())
        return {};
    return what + ": differs at byte " +
           std::to_string(wi - want.begin()) + " (lengths " +
           std::to_string(want.size()) + " vs " +
           std::to_string(got.size()) + ")";
}

std::string
checkEnergyClaim(const std::string &profile,
                 const std::map<std::string, double> &perInst,
                 const std::string &cam)
{
    auto base = perInst.find(cam);
    if (base == perInst.end())
        return profile + ": no CAM baseline energy";
    for (const auto &[scheme, e] : perInst) {
        if (scheme == cam)
            continue;
        if (!(e < base->second))
            return profile + ": " + scheme + " issue-queue energy " +
                   std::to_string(e) + " pJ/inst is not below " + cam +
                   "'s " + std::to_string(base->second);
    }
    return {};
}

std::string
checkAllHits(uint64_t hits, uint64_t lookups)
{
    if (hits != lookups)
        return "warm pass: " + std::to_string(hits) + " store hits of " +
               std::to_string(lookups) + " lookups";
    return {};
}

std::string
checkComputed(const std::string &what, unsigned attempts)
{
    if (attempts == 0)
        return what + " was replayed from the store";
    return {};
}

std::string
checkSnapshotReplay(bool wantReplay, bool replayed)
{
    if (wantReplay && !replayed)
        return "interval run did not replay its snapshot set";
    if (!wantReplay && replayed)
        return "saving pass found a snapshot set in a fresh directory";
    return {};
}

std::string
checkComputedCount(uint64_t computed, uint64_t distinct)
{
    if (computed != distinct)
        return "server computed " + std::to_string(computed) +
               " points for " + std::to_string(distinct) +
               " distinct points submitted";
    return {};
}

std::string
checkNoRefusals(uint64_t refused)
{
    if (refused != 0)
        return "server refused " + std::to_string(refused) +
               " submit(s) as busy";
    return {};
}

} // namespace perfbench
