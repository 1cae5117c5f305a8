/**
 * @file
 * The benchmark's output checks, as pure functions so the self-test
 * can feed each one a planted wrong answer.
 *
 * Every check returns an empty string when the output is right and a
 * one-line reason otherwise. None compares against a stored copy of an
 * earlier output: each compares against a computation made apart from
 * the program, or against a property the method must have.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/isa.hh"

namespace perfbench
{

/** A chunk run to an absolute commit target stops on or after it, and
 *  overshoots by less than the commit width (one last commit cycle). */
std::string checkCommitBudget(uint64_t target, uint64_t committed,
                              int commitWidth, bool deadlocked);

/** IPC can never exceed the commit width. */
std::string checkIpc(uint64_t committed, uint64_t cycles, int commitWidth);

/** Order-sensitive digest of a micro-op stream. */
class OpDigest
{
  public:
    void add(const diq::trace::MicroOp &op);
    uint64_t value() const { return h_; }
    uint64_t count() const { return n_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
    uint64_t n_ = 0;
};

/** The retired stream's digest equals the source stream's. */
std::string checkStreamDigest(const std::string &what, uint64_t expected,
                              uint64_t got);

/** Two op streams are equal field for field (names the first
 *  mismatching index). */
std::string checkSameOps(const std::vector<diq::trace::MicroOp> &want,
                         const std::vector<diq::trace::MicroOp> &got);

/** Two byte strings (CSVs, codec images) are identical (names the
 *  first differing offset). */
std::string checkSameBytes(const std::string &what, const std::string &want,
                           const std::string &got);

/**
 * The paper's central claim on one profile: every distributed
 * organisation's issue-queue energy per committed instruction is below
 * the CAM baseline's. `perInst` maps scheme name to pJ/inst; `cam`
 * names the baseline entry.
 */
std::string checkEnergyClaim(const std::string &profile,
                             const std::map<std::string, double> &perInst,
                             const std::string &cam);

/** Every lookup of a warm pass was a store hit. */
std::string checkAllHits(uint64_t hits, uint64_t lookups);

/** A cold point was computed, not served from the store (a sweep
 *  reports 0 attempts for a point it replayed from the store). */
std::string checkComputed(const std::string &what, unsigned attempts);

/** An exact interval run replays its snapshot set when one is there
 *  (`wantReplay`) and runs the saving pass when none is. */
std::string checkSnapshotReplay(bool wantReplay, bool replayed);

/** The server computed each distinct point exactly once. */
std::string checkComputedCount(uint64_t computed, uint64_t distinct);

/** The server refused no submit as busy. */
std::string checkNoRefusals(uint64_t refused);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
