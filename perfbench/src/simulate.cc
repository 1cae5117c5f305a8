/**
 * @file
 * The simulate phase: the four paper organisations each run the
 * workload's profiles. Set-up constructs every machine and runs its
 * warm-up region; each round then runs every job one chunk further
 * into its measured region, organisations interleaved, so one long
 * measured region per job is sliced finely across the run.
 */

#include <map>
#include <stdexcept>

#include "checks.hh"
#include "phases.hh"
#include "runner/sim_job.hh"
#include "sim/pipeline.hh"
#include "spec/experiment_spec.hh"
#include "store/result_store.hh"

namespace perfbench
{
namespace
{

using namespace diq;

struct Job
{
    runner::SimJob job;
    std::unique_ptr<trace::TraceSource> workload;
    std::unique_ptr<sim::Cpu> cpu;
    uint64_t target = 0; ///< absolute commit target in the measured region
    uint64_t chunk = 0;
};

runner::SimJob
makeSimJob(const std::string &preset, const std::string &bench,
           uint64_t warmup, uint64_t measure)
{
    spec::ExperimentSpec exp =
        spec::ExperimentSpec::parse(preset + " bench=" + bench);
    exp.warmupInsts = warmup;
    exp.measureInsts = measure;
    return runner::makeJob(exp);
}

/** What executeJob would return for a machine driven by hand. */
runner::SimResult
resultOf(const runner::SimJob &job, const sim::Cpu &cpu)
{
    runner::SimResult r;
    r.benchmark = job.profile.name;
    r.scheme = job.exp.processor.scheme.name();
    r.stats = cpu.stats();
    r.ipc = cpu.stats().ipc();
    r.energy = runner::energyFor(job.exp.processor.scheme,
                                 cpu.stats().counters);
    return r;
}

/**
 * Run a machine one chunk further into its measured region, to the
 * next absolute commit target, as every round does. Returns the
 * failed check, or "".
 */
std::string
advance(Job &j)
{
    sim::Cpu &cpu = *j.cpu;
    const uint64_t before = cpu.stats().committed;
    const uint64_t cyc0 = cpu.stats().cycles;
    j.target += j.chunk;
    cpu.run(j.target - before);
    const auto &st = cpu.stats();
    const int width = j.job.exp.processor.commitWidth;
    std::string bad =
        checkCommitBudget(j.target, st.committed, width, st.deadlocked);
    if (bad.empty())
        bad = checkIpc(st.committed - before, st.cycles - cyc0, width);
    return bad;
}

class SimulatePhase : public Phase
{
  public:
    explicit SimulatePhase(const Inputs &in)
        : in_(in), insts_(organisations().size()),
          cycles_(organisations().size())
    {
    }

    const char *name() const override { return "simulate"; }

    void
    setup(unsigned) override
    {
        jobs_.clear();
        auto t0 = Clock::now();
        const auto &orgs = organisations();
        for (size_t b = 0; b < in_.simBenches.size(); ++b) {
            for (size_t o = 0; o < orgs.size(); ++o) {
                Job j;
                j.chunk = in_.simBenches[b].rfind("fuzz:", 0) == 0
                    ? in_.fuzzChunk
                    : in_.simChunk;
                j.job = makeSimJob(orgs[o].preset, in_.simBenches[b],
                                   in_.simWarmup, j.chunk);
                Tracer::Scope span(tracer(), "sim.warmup", jobs_.size() + 1);
                j.workload = runner::makeJobWorkload(j.job);
                j.cpu = std::make_unique<sim::Cpu>(j.job.exp.processor,
                                                   *j.workload);
                j.cpu->run(in_.simWarmup);
                expect(checkCommitBudget(
                    in_.simWarmup, j.cpu->stats().committed,
                    j.job.exp.processor.commitWidth,
                    j.cpu->stats().deadlocked));
                j.cpu->resetStats();
                jobs_.push_back(std::move(j));
            }
        }
        warmupS_.push_back(secondsSince(t0));
    }

    void
    round(unsigned r) override
    {
        const size_t norg = organisations().size();
        for (size_t b = 0; b < in_.simBenches.size(); ++b) {
            for (size_t k = 0; k < norg; ++k) {
                // Rotate which organisation goes first each round.
                size_t o = (k + r) % norg;
                Job &j = jobs_[b * norg + o];
                const uint64_t before = j.cpu->stats().committed;
                const uint64_t cyc0 = j.cpu->stats().cycles;
                const double c0 = threadCpuSeconds();
                std::string bad;
                {
                    Tracer::Scope span(tracer(), "sim.run",
                                       b * norg + o + 1);
                    bad = advance(j);
                }
                const double dt = threadCpuSeconds() - c0;
                const auto &st = j.cpu->stats();
                if (bad.empty())
                    ledger.ok();
                else
                    expect(organisations()[o].preset + " on " +
                           in_.simBenches[b] + ": " + bad);
                insts_[o].add(double(st.committed - before) / 1e6, dt);
                cycles_[o].add(double(st.cycles - cyc0) / 1e9, dt);
            }
        }
    }

    void
    verify() override
    {
        const auto &orgs = organisations();
        const size_t norg = orgs.size();
        // Whole measured region: IPC bound, and the paper's energy
        // claim on every SPEC-like profile of the mix.
        for (size_t b = 0; b < in_.simBenches.size(); ++b) {
            std::map<std::string, double> perInst;
            for (size_t o = 0; o < norg; ++o) {
                const Job &j = jobs_[b * norg + o];
                const auto &st = j.cpu->stats();
                expect(checkIpc(st.committed, st.cycles,
                                j.job.exp.processor.commitWidth));
                perInst[orgs[o].preset] =
                    runner::energyFor(j.job.exp.processor.scheme,
                                      st.counters)
                        .total() /
                    double(st.committed);
            }
            if (in_.simSpecLike[b])
                expect(checkEnergyClaim(in_.simBenches[b], perInst,
                                        orgs[0].preset));
        }

        // Retired-stream pass: a machine driven as set-up and the
        // rounds drive theirs (warm-up, resetStats, then chunks to
        // absolute commit targets) retires exactly the source stream,
        // for every organisation, and its counters equal those of one
        // runner::executeJob over the same measured region.
        const uint64_t w = 2000, chunk = 4000, chunks = 3;
        const uint64_t m = chunk * chunks, n = w + m;
        for (const std::string &bench : in_.simBenches) {
            OpDigest source;
            {
                runner::SimJob probe = makeSimJob(orgs[0].preset, bench, w, m);
                auto wl = runner::makeJobWorkload(probe);
                trace::MicroOp op;
                while (source.count() < n && wl->next(op))
                    source.add(op);
            }
            for (const Organisation &org : orgs) {
                Job j;
                j.job = makeSimJob(org.preset, bench, w, m);
                j.chunk = chunk;
                j.workload = runner::makeJobWorkload(j.job);
                j.cpu = std::make_unique<sim::Cpu>(j.job.exp.processor,
                                                   *j.workload);
                OpDigest retired;
                j.cpu->setCommitHook(
                    [&](core::InstIdx, const trace::MicroOp &op) {
                        if (retired.count() < n)
                            retired.add(op);
                    });
                j.cpu->run(w);
                j.cpu->resetStats();
                const std::string what = org.preset + " on " + bench;
                for (uint64_t c = 0; c < chunks; ++c) {
                    std::string bad = advance(j);
                    if (!bad.empty())
                        expect(what + ": " + bad);
                }
                expect(checkStreamDigest(what, source.value(),
                                         retired.value()));
                const std::string key = j.job.key();
                expect(checkSameBytes(
                    what + " chunk-driven vs executeJob counters",
                    store::encodeEntry(key, runner::executeJob(j.job)),
                    store::encodeEntry(key, resultOf(j.job, *j.cpu))));
            }
        }
    }

    void
    report(MetricTable &out) override
    {
        const auto &orgs = organisations();
        for (size_t o = 0; o < orgs.size(); ++o)
            out["mips_" + orgs[o].tag] = {insts_[o].value(),
                                          "Minst/s"};
    }

    void
    layers(MetricTable &out) override
    {
        const auto &orgs = organisations();
        for (size_t o = 0; o < orgs.size(); ++o)
            out["sim.ns_per_cycle." + orgs[o].tag] = {
                1.0 / cycles_[o].value(), "ns"};
        out["sim.warmup_s"] = {median(warmupS_), "s"};

        // runner::energyFor on every job's measured counters.
        const int reps = 50;
        auto t0 = Clock::now();
        double sink = 0.0;
        for (int i = 0; i < reps; ++i)
            for (const Job &j : jobs_) {
                Tracer::Scope span(tracer(), "power.energyFor");
                sink += runner::energyFor(j.job.exp.processor.scheme,
                                          j.cpu->stats().counters)
                            .total();
            }
        double calls = double(reps) * double(jobs_.size());
        out["power.energy_us"] = {secondsSince(t0) * 1e6 / calls, "us"};
        if (sink < 0)
            throw std::logic_error("negative energy");
    }

  private:
    const Inputs &in_;
    std::vector<Job> jobs_;
    /** Per organisation: measured Minst and Gcycles over CPU time. */
    std::vector<Rate> insts_, cycles_;
    std::vector<double> warmupS_;
};

} // namespace

std::unique_ptr<Phase>
makeSimulatePhase(const Inputs &in)
{
    return std::make_unique<SimulatePhase>(in);
}

} // namespace perfbench
