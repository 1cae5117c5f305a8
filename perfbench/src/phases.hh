/**
 * @file
 * The four phases every perfbench run executes, and the inputs the
 * workload and seed build for them.
 *
 * A run sets every phase up, then runs rounds of all four phases
 * round-robin until the measuring time is spent, so every metric sees
 * the same slow periods of the host; between rounds, spread over that
 * time, it sets every phase up again from scratch several times (each
 * set-up is timed and their median reported). Then it checks the
 * outputs untimed.
 */

#ifndef PERFBENCH_PHASES_HH
#define PERFBENCH_PHASES_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

/** The four paper organisations, with their metric suffixes. */
struct Organisation
{
    std::string preset; ///< spec preset name
    std::string tag;    ///< metric suffix: cam, issuefifo, latfifo, mixbuff
};

const std::vector<Organisation> &organisations();

/** Everything the program receives, built from workload + seed. */
struct Inputs
{
    uint64_t seed = 0;

    /** simulate: three behaviour-distinct profiles + one fuzz graph. */
    std::vector<std::string> simBenches;
    std::vector<bool> simSpecLike; ///< energy claim applies
    uint64_t simWarmup = 0;
    uint64_t simChunk = 0;     ///< measured insts per job per round
    uint64_t fuzzChunk = 0;    ///< same, for the fuzz graph

    /** replay: one recorded profile, interval-replayed on the pool. */
    std::string replayBench;
    uint64_t replayWarmup = 0, replayMeasure = 0;
    unsigned intervals = 4;

    /** campaign: the figure grid, short per-point budgets. */
    std::vector<std::string> gridBenches;
    uint64_t campWarmup = 0, campMeasure = 0;

    /** service: grids over these profiles. */
    std::vector<std::string> serviceBenches;
    uint64_t svcWarmup = 0, svcMeasure = 0;

    unsigned threads = 4;     ///< pool width (at most nproc)
    std::string runDir;       ///< scratch directory for this run

    /** @throws std::invalid_argument for an unknown workload. */
    static Inputs make(const std::string &workload, uint64_t seed,
                       const std::string &runDir);
};

/** One phase of a run. */
class Phase
{
  public:
    virtual ~Phase() = default;

    virtual const char *name() const = 0;

    /** Build fresh state (directories named by `rep`), which the
     *  rounds that follow use. Timed. */
    virtual void setup(unsigned rep) = 0;

    /** One round of measured work. */
    virtual void round(unsigned r) = 0;

    /** Untimed output checks after the last round (phases that check
     *  each round as it ends need none). */
    virtual void verify() {}

    /** End-to-end metrics of this phase. */
    virtual void report(MetricTable &out) = 0;

    /** Per-layer metrics (traced run only); may run extra untimed
     *  passes that decompose the phase into its public calls. */
    virtual void layers(MetricTable &out) = 0;

    /** Release servers and threads before the run ends. */
    virtual void stop() {}

    Ledger ledger;

    /** Output checks that did not match (each also a failed op). */
    std::vector<std::string> mismatches;

  protected:
    /** Record a check result: "" passes, anything else fails. */
    void
    expect(const std::string &failure)
    {
        if (failure.empty())
            return;
        ledger.fail(failure);
        if (mismatches.size() < 8)
            mismatches.push_back(failure);
    }
};

std::unique_ptr<Phase> makeSimulatePhase(const Inputs &in);
std::unique_ptr<Phase> makeReplayPhase(const Inputs &in);
std::unique_ptr<Phase> makeCampaignPhase(const Inputs &in);
std::unique_ptr<Phase> makeServicePhase(const Inputs &in);

/** Per-layer micro drivers that need no phase state: scheme, caches,
 *  predictor, workload generator, frame round trip. */
void measureStandaloneLayers(const Inputs &in, MetricTable &out);

} // namespace perfbench

#endif // PERFBENCH_PHASES_HH
