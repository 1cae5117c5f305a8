/**
 * @file
 * The campaign phase: the paper's figure grid (four organisations x
 * the workload's profiles) with short per-point budgets, run as
 * `diq sweep --store --jobs N` runs it: store lock, durable
 * store::ResultStore, sweep journal, runner::SweepRunner. Each round
 * computes the whole grid under fresh keys (cold), then replays the
 * populated grid from the store six times (warm), each warm pass
 * opening the store.
 */

#include <filesystem>
#include <optional>

#include "checks.hh"
#include "cli.hh"
#include "phases.hh"
#include "runner/supervisor.hh"
#include "runner/sweep_runner.hh"
#include "runner/thread_pool.hh"
#include "spec/experiment_spec.hh"
#include "store/result_store.hh"

namespace fs = std::filesystem;

namespace perfbench
{
namespace
{

using namespace diq;

constexpr int kWarmPassesPerRound = 6;

/** One sweep's rendered CSV and a copy of its results (the runner
 *  that owns the originals ends with the pass). */
struct Pass
{
    std::string csv;
    uint64_t storeHits = 0;
    std::vector<std::optional<runner::SimResult>> results;
    std::vector<unsigned> attempts;
    std::vector<std::string> errors;
};

class CampaignPhase : public Phase
{
  public:
    explicit CampaignPhase(const Inputs &in) : in_(in)
    {
        std::string orgs;
        for (const Organisation &o : organisations())
            orgs += (orgs.empty() ? "" : ",") + o.preset;
        std::string benches;
        for (const std::string &b : in.gridBenches)
            benches += (benches.empty() ? "" : ",") + b;
        gridText_ = "scheme=" + orgs + " bench=" + benches;
        grid_ = runner::SweepSpec::fromText(gridText_);
    }

    const char *name() const override { return "campaign"; }

    void
    setup(unsigned rep) override
    {
        lock_.reset();
        root_ = fs::path(in_.runDir) / ("campaign-" + std::to_string(rep));
        lock_.emplace(root_);
        Pass p = sweep(in_.campMeasure);
        for (const std::string &e : p.errors)
            if (!e.empty())
                expect("populating sweep: " + e);
        populated_ = p.csv;
    }

    void
    round(unsigned r) override
    {
        const double points = double(grid_.size());
        // Cold: every point under a budget no earlier round used.
        const uint64_t measure = in_.campMeasure + 1 + r;
        // Process CPU time: the sweep's workers and this thread.
        double c0 = processCpuSeconds();
        Pass cold = sweep(measure);
        coldRate_.add(points, processCpuSeconds() - c0);
        for (size_t i = 0; i < grid_.size(); ++i) {
            const std::string what = "cold point " + std::to_string(i);
            if (!cold.results[i]) {
                ledger.fail(what + ": " + cold.errors[i]);
                continue;
            }
            std::string bad = checkComputed(what, cold.attempts[i]);
            bad.empty() ? ledger.ok() : expect(bad);
        }
        checkCold(cold, measure);

        // Warm: the populated grid, wholly from the store.
        for (int k = 0; k < kWarmPassesPerRound; ++k) {
            c0 = processCpuSeconds();
            Pass warm = sweep(in_.campMeasure);
            warmRate_.add(points, processCpuSeconds() - c0);
            std::string bad = checkSameBytes("warm CSV vs populating CSV",
                                             populated_, warm.csv);
            if (bad.empty())
                bad = checkAllHits(warm.storeHits, grid_.size());
            if (bad.empty())
                ledger.attempted += grid_.size();
            else
                expect(bad);
        }
    }

    void
    report(MetricTable &out) override
    {
        out["cold_points_per_s"] = {coldRate_.value(), "1/s"};
        out["warm_points_per_s"] = {warmRate_.value(), "1/s"};
    }

    void
    layers(MetricTable &out) override
    {
        decomposedCold(out);
        decomposedWarm(out);
    }

  private:
    /** Untimed, after each cold pass: every cold point equals a
     *  single-thread, store-free executeJob of the same spec (run on a
     *  pool for speed; each job is still one thread and touches no
     *  store). Checking per round keeps memory flat. */
    void
    checkCold(const Pass &cold, uint64_t measure)
    {
        const size_t n = grid_.size();
        std::vector<std::string> want(n);
        {
            runner::ThreadPool pool(in_.threads);
            for (size_t i = 0; i < n; ++i)
                if (cold.results[i])
                    pool.submit([&, i] {
                        runner::SimJob job = jobFor(i, measure);
                        want[i] = store::encodeEntry(job.key(),
                                                     runner::executeJob(job));
                    });
            pool.wait();
        }
        for (size_t i = 0; i < n; ++i) {
            if (!cold.results[i])
                continue;
            runner::SimJob job = jobFor(i, measure);
            expect(checkSameBytes("cold point vs executeJob: " + job.key(),
                                  want[i],
                                  store::encodeEntry(job.key(),
                                                     *cold.results[i])));
        }
    }

    runner::SimJob
    jobFor(size_t index, uint64_t measure) const
    {
        spec::ExperimentSpec exp = grid_.points()[index].first;
        exp.warmupInsts = in_.campWarmup;
        exp.measureInsts = measure;
        return runner::makeJob(exp);
    }

    runner::RunnerOptions
    optionsFor(uint64_t measure) const
    {
        runner::RunnerOptions opts;
        opts.warmupInsts = in_.campWarmup;
        opts.measureInsts = measure;
        opts.jobs = in_.threads;
        return opts;
    }

    /** One `diq sweep --store` pass under the held store lock. */
    Pass
    sweep(uint64_t measure)
    {
        runner::RunnerOptions opts = optionsFor(measure);
        store::ResultStore st(root_);
        opts.store = &st;
        std::string campaign = gridText_ + " warmup=" +
                               std::to_string(opts.warmupInsts) +
                               " insts=" + std::to_string(measure);
        runner::SweepJournal journal(
            st.root() / "journals" /
                runner::SweepJournal::fileNameFor(campaign),
            campaign, false);
        runner::SweepRunner runner(opts);
        std::vector<runner::JobOutcome> outcomes =
            runner.runAllSupervised(grid_, &journal);
        Pass p;
        p.csv = bench::renderSweepCsv(grid_, opts, outcomes);
        // Provenance per point, not ResultStore::hits(): that counter
        // is bumped unsynchronised by the pool's workers and undercounts.
        for (const runner::JobOutcome &o : outcomes) {
            p.storeHits += o.fromStore ? 1 : 0;
            p.results.push_back(o.result ? std::optional(*o.result)
                                         : std::nullopt);
            p.attempts.push_back(o.attempts);
            p.errors.push_back(o.error);
        }
        return p;
    }

    /** The cold pass taken apart: each point on the pool as
     *  executeJob then ResultStore::save, timed per call. */
    void
    decomposedCold(MetricTable &out)
    {
        const size_t n = grid_.size();
        // A budget no round reaches (rounds add one each), so fresh keys.
        const uint64_t measure = in_.campMeasure + 500;
        store::ResultStore st(root_);
        std::vector<Clock::time_point> queued(n), started(n);
        std::vector<double> jobS(n, 0.0), saveS(n, 0.0);
        auto t0 = Clock::now();
        {
            runner::ThreadPool pool(in_.threads);
            for (size_t i = 0; i < n; ++i) {
                queued[i] = Clock::now();
                pool.submit([&, i] {
                    started[i] = Clock::now();
                    runner::SimJob job = jobFor(i, measure);
                    runner::SimResult r;
                    {
                        Tracer::Scope span(tracer(), "runner.executeJob",
                                           i + 1);
                        r = runner::executeJob(job);
                    }
                    auto t1 = Clock::now();
                    jobS[i] = secondsBetween(started[i], t1);
                    {
                        Tracer::Scope span(tracer(), "store.save", i + 1);
                        st.save(job.key(), r);
                    }
                    saveS[i] = secondsSince(t1);
                });
            }
            pool.wait();
        }
        double passS = secondsSince(t0);
        double wait = 0, busy = 0;
        for (size_t i = 0; i < n; ++i) {
            wait += secondsBetween(queued[i], started[i]);
            busy += jobS[i] + saveS[i];
        }
        double sumJob = 0, sumSave = 0;
        for (size_t i = 0; i < n; ++i) {
            sumJob += jobS[i];
            sumSave += saveS[i];
        }
        out["runner.job_ms"] = {sumJob * 1e3 / n, "ms"};
        out["runner.queue_wait_ms"] = {wait * 1e3 / n, "ms"};
        out["runner.busy_share"] = {busy / (in_.threads * passS), "ratio"};
        out["store.save_us"] = {sumSave * 1e6 / n, "us"};
    }

    /** The warm pass taken apart: open, canonicalise, load, and the
     *  entry codec on what was loaded. */
    void
    decomposedWarm(MetricTable &out)
    {
        const int opens = 20;
        auto t0 = Clock::now();
        for (int i = 0; i < opens; ++i) {
            Tracer::Scope span(tracer(), "store.open");
            store::ResultStore st(root_);
        }
        out["store.open_ms"] = {secondsSince(t0) * 1e3 / opens, "ms"};

        store::ResultStore st(root_);
        const size_t n = grid_.size();
        double canonS = 0, loadS = 0, encS = 0, decS = 0, bytes = 0;
        uint64_t lookups = 0;
        for (size_t i = 0; i < n; ++i) {
            runner::SimJob job = jobFor(i, in_.campMeasure);
            const std::string text = job.exp.toText();
            auto t1 = Clock::now();
            std::string key;
            {
                Tracer::Scope span(tracer(), "spec.canonical", i + 1);
                key = spec::ExperimentSpec::parse(text).canonicalLine();
            }
            canonS += secondsSince(t1);
            t1 = Clock::now();
            std::optional<runner::SimResult> r;
            {
                Tracer::Scope span(tracer(), "store.load", i + 1);
                r = st.load(key);
            }
            loadS += secondsSince(t1);
            ++lookups;
            if (!r) {
                expect("warm lookup missed: " + key);
                continue;
            }
            t1 = Clock::now();
            std::string image;
            {
                Tracer::Scope span(tracer(), "store.encodeEntry", i + 1);
                image = store::encodeEntry(key, *r);
            }
            encS += secondsSince(t1);
            bytes += double(image.size());
            t1 = Clock::now();
            std::string k2;
            runner::SimResult r2;
            {
                Tracer::Scope span(tracer(), "store.decodeEntry", i + 1);
                if (store::decodeEntry(image, k2, r2) !=
                    store::EntryStatus::Valid)
                    expect("entry did not decode: " + key);
            }
            decS += secondsSince(t1);
        }
        out["spec.canonical_us"] = {canonS * 1e6 / n, "us"};
        out["store.load_us"] = {loadS * 1e6 / n, "us"};
        out["store.encode_us"] = {encS * 1e6 / n, "us"};
        out["store.decode_us"] = {decS * 1e6 / n, "us"};
        out["store.entry_bytes"] = {bytes / n, "B"};
        out["store.hit_ratio"] = {double(st.hits()) / double(lookups),
                                  "ratio"};
    }

    const Inputs &in_;
    std::string gridText_;
    runner::SweepSpec grid_;
    fs::path root_;
    std::optional<store::StoreLock> lock_;
    std::string populated_;
    Rate coldRate_, warmRate_;
};

} // namespace

std::unique_ptr<Phase>
makeCampaignPhase(const Inputs &in)
{
    return std::make_unique<CampaignPhase>(in);
}

} // namespace perfbench
