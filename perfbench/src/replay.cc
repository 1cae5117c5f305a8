/**
 * @file
 * The replay phase: a `.diqt` trace of one profile is recorded with
 * the program's own recorder and replayed through runner::executeJob,
 * then as exact-mode interval simulation on the thread pool from the
 * snapshot set the serial saving pass wrote.
 */

#include <filesystem>

#include "checks.hh"
#include "ckpt/interval.hh"
#include "ckpt/snapshot.hh"
#include "phases.hh"
#include "runner/sim_job.hh"
#include "runner/thread_pool.hh"
#include "sim/pipeline.hh"
#include "store/result_store.hh"
#include "trace/file_trace.hh"
#include "trace/trace_source.hh"

namespace fs = std::filesystem;

namespace perfbench
{
namespace
{

using namespace diq;

/** The counter dump of a result, independent of the benchmark label
 *  (a trace replay names its token, the live run its profile). */
std::string
counterImage(runner::SimResult r)
{
    r.benchmark.clear();
    return store::encodeEntry("", r);
}

std::vector<trace::MicroOp>
drawOps(trace::TraceSource &src, uint64_t n)
{
    std::vector<trace::MicroOp> ops;
    ops.reserve(n);
    trace::MicroOp op;
    while (ops.size() < n && src.next(op))
        ops.push_back(op);
    return ops;
}

class ReplayPhase : public Phase
{
  public:
    explicit ReplayPhase(const Inputs &in) : in_(in) {}

    const char *name() const override { return "replay"; }

    void
    setup(unsigned rep) override
    {
        dir_ = fs::path(in_.runDir) / ("replay-" + std::to_string(rep));
        fs::create_directories(dir_ / "ckpt");
        tracePath_ = (dir_ / "trace.diqt").string();

        spec::ExperimentSpec exp = spec::ExperimentSpec::parse(
            "iq6464 bench=" + in_.replayBench);
        exp.warmupInsts = in_.replayWarmup;
        exp.measureInsts = in_.replayMeasure;
        liveJob_ = runner::makeJob(exp);

        // Enough ops for the warm-up, the measured region and the
        // instructions in flight when the last one commits.
        recordOps_ = in_.replayWarmup + in_.replayMeasure + 8192;
        {
            Tracer::Scope span(tracer(), "trace.recordTrace");
            auto src = runner::makeJobWorkload(liveJob_);
            trace::recordTrace(*src, tracePath_, recordOps_);
        }
        traceExp_ = exp;
        traceExp_.benchmark = "trace:" + tracePath_;

        // The serial saving pass is the monolithic run: it writes one
        // snapshot per interval head along the way.
        Tracer::Scope span(tracer(), "ckpt.runIntervals");
        ckpt::IntervalOutcome out = ckpt::runIntervals(
            traceExp_, in_.intervals, in_.threads, ckpt::IntervalMode::Exact,
            dir_ / "ckpt");
        expect(checkSnapshotReplay(false, out.replayed));
        saved_ = out.result;
    }

    void
    round(unsigned) override
    {
        const double measured = double(in_.replayMeasure);
        runner::SimResult mono;
        double c0 = threadCpuSeconds();
        {
            Tracer::Scope span(tracer(), "runner.executeJob");
            mono = runner::executeJob(runner::makeJob(traceExp_));
        }
        replayMips_.add(measured / 1e6, threadCpuSeconds() - c0);
        std::string bad = checkSameBytes("monolithic replay vs saving pass",
                                         counterImage(saved_),
                                         counterImage(mono));
        bad.empty() ? ledger.ok() : expect(bad);

        // The pool's workers and this thread together.
        c0 = processCpuSeconds();
        ckpt::IntervalOutcome out;
        {
            Tracer::Scope span(tracer(), "ckpt.runIntervals");
            out = ckpt::runIntervals(traceExp_, in_.intervals, in_.threads,
                                     ckpt::IntervalMode::Exact, dir_ / "ckpt");
        }
        intervalMips_.add(measured / 1e6, processCpuSeconds() - c0);
        const std::string key = traceExp_.canonicalLine();
        bad = checkSnapshotReplay(true, out.replayed);
        if (bad.empty())
            bad = checkSameBytes("interval replay vs monolithic replay",
                                 store::encodeEntry(key, mono),
                                 store::encodeEntry(key, out.result));
        bad.empty() ? ledger.ok() : expect(bad);
    }

    void
    verify() override
    {
        // The file decodes to exactly the generator's stream.
        auto gen = runner::makeJobWorkload(liveJob_);
        std::vector<trace::MicroOp> want = drawOps(*gen, recordOps_);
        trace::FileTrace file(tracePath_);
        std::vector<trace::MicroOp> got = drawOps(file, recordOps_ + 1);
        expect(checkSameOps(want, got));

        // Replaying the trace reproduces the live run's counters.
        expect(checkSameBytes("trace replay vs live run counters",
                              counterImage(runner::executeJob(liveJob_)),
                              counterImage(saved_)));
    }

    void
    report(MetricTable &out) override
    {
        out["replay_mips"] = {replayMips_.value(), "Minst/s"};
        out["interval_mips"] = {intervalMips_.value(), "Minst/s"};
    }

    void
    layers(MetricTable &out) override
    {
        const uint64_t n = recordOps_;

        // Generation, encoding and decoding of the same op stream.
        std::vector<trace::MicroOp> ops;
        auto t0 = Clock::now();
        {
            Tracer::Scope span(tracer(), "trace.next");
            auto gen = runner::makeJobWorkload(liveJob_);
            ops = drawOps(*gen, n);
        }
        out["trace.gen_ns_per_op"] = {secondsSince(t0) * 1e9 / double(n),
                                      "ns"};

        const std::string copy = (dir_ / "encode.diqt").string();
        trace::VectorTrace vt(ops);
        t0 = Clock::now();
        {
            Tracer::Scope span(tracer(), "trace.recordTrace");
            trace::recordTrace(vt, copy, n);
        }
        out["trace.encode_ns_per_op"] = {secondsSince(t0) * 1e9 / double(n),
                                         "ns"};
        out["trace.bytes_per_op"] = {
            double(fs::file_size(copy)) / double(n), "B"};

        t0 = Clock::now();
        {
            Tracer::Scope span(tracer(), "trace.FileTrace.next");
            trace::FileTrace file(tracePath_);
            drawOps(file, n);
        }
        out["trace.decode_ns_per_op"] = {secondsSince(t0) * 1e9 / double(n),
                                         "ns"};

        measureSnapshots(out);

        // One worker: the gain from skipping the warm-up region alone.
        t0 = Clock::now();
        ckpt::runIntervals(traceExp_, in_.intervals, 1,
                           ckpt::IntervalMode::Exact, dir_ / "ckpt");
        out["ckpt.interval_mips_1worker"] = {
            double(in_.replayMeasure) / secondsSince(t0) / 1e6, "Minst/s"};
    }

  private:
    /** Snapshot codec costs and the per-interval replay spread, from
     *  the snapshot set the saving pass wrote. */
    void
    measureSnapshots(MetricTable &out)
    {
        const std::string key = traceExp_.canonicalLine();
        ckpt::IntervalPlan plan =
            ckpt::planIntervals(in_.replayMeasure, in_.intervals);
        const unsigned n = unsigned(plan.sizes.size());
        std::vector<std::string> images(n);
        double restoreS = 0, encodeS = 0, writeS = 0, bytes = 0;
        for (unsigned i = 0; i < n; ++i) {
            images[i] = ckpt::readSnapshotFile(
                dir_ / "ckpt" / ckpt::snapshotFileName(key, n, i));
            bytes += double(images[i].size());
            auto t0 = Clock::now();
            ckpt::RestoredRun run;
            {
                Tracer::Scope span(tracer(), "ckpt.restoreRunFromImage");
                run = ckpt::restoreRunFromImage(images[i]);
            }
            restoreS += secondsSince(t0);
            t0 = Clock::now();
            std::string image;
            {
                Tracer::Scope span(tracer(), "ckpt.encodeSnapshot");
                image = ckpt::encodeSnapshot(key, *run.cpu);
            }
            encodeS += secondsSince(t0);
            expect(checkSameBytes("snapshot re-encode", images[i], image));
            t0 = Clock::now();
            {
                Tracer::Scope span(tracer(), "ckpt.writeSnapshotFile");
                ckpt::writeSnapshotFile(dir_ / "rewrite.diqs", image);
            }
            writeS += secondsSince(t0);
        }
        out["ckpt.restore_ms"] = {restoreS * 1e3 / n, "ms"};
        out["ckpt.encode_ms"] = {encodeS * 1e3 / n, "ms"};
        out["ckpt.write_ms"] = {writeS * 1e3 / n, "ms"};
        out["ckpt.snapshot_kb"] = {bytes / n / 1024.0, "KiB"};

        // Each interval restored and replayed on the pool, timed apart:
        // the slowest one sets the interval result's wall time.
        std::vector<double> secs(n, 0.0);
        {
            runner::ThreadPool pool(in_.threads);
            for (unsigned i = 0; i < n; ++i)
                pool.submit([&, i] {
                    auto t0 = Clock::now();
                    Tracer::Scope span(tracer(), "ckpt.interval", i + 1);
                    ckpt::RestoredRun run = ckpt::restoreRunFromImage(images[i]);
                    uint64_t end = i + 1 < n ? plan.starts[i + 1]
                                             : in_.replayMeasure;
                    uint64_t at = run.cpu->stats().committed;
                    run.cpu->run(end > at ? end - at : 0);
                    secs[i] = secondsSince(t0);
                });
            pool.wait();
        }
        double sum = 0, worst = 0;
        for (double s : secs) {
            sum += s;
            worst = std::max(worst, s);
        }
        out["ckpt.slowest_interval_ratio"] = {worst / (sum / n), "ratio"};
    }

    const Inputs &in_;
    fs::path dir_;
    std::string tracePath_;
    uint64_t recordOps_ = 0;
    runner::SimJob liveJob_;
    spec::ExperimentSpec traceExp_;
    runner::SimResult saved_;
    Rate replayMips_, intervalMips_;
};

} // namespace

std::unique_ptr<Phase>
makeReplayPhase(const Inputs &in)
{
    return std::make_unique<ReplayPhase>(in);
}

} // namespace perfbench
