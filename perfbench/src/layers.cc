/**
 * @file
 * Per-layer micro drivers for the layers a phase cannot time from
 * outside at the granularity of one call: an issue scheme driven alone
 * on a dispatch stream, the cache hierarchy on the mix's address
 * stream, and the branch predictor on the mix's branches. Each calls
 * only public functions of its module, on op streams cut from the
 * simulate mix.
 */

#include <deque>
#include <stdexcept>

#include "branch/predictors.hh"
#include "core/inst_pool.hh"
#include "core/issue_scheme.hh"
#include "mem/cache.hh"
#include "phases.hh"
#include "runner/sim_job.hh"
#include "sim/rename.hh"
#include "spec/experiment_spec.hh"

namespace perfbench
{
namespace
{

using namespace diq;

constexpr uint64_t kStreamOps = 60000;

/** The first `n` ops of a bench's job workload. */
std::vector<trace::MicroOp>
streamOf(const std::string &bench, uint64_t n)
{
    spec::ExperimentSpec exp = spec::ExperimentSpec::parse("bench=" + bench);
    auto src = runner::makeJobWorkload(runner::makeJob(exp));
    std::vector<trace::MicroOp> ops;
    ops.reserve(n);
    trace::MicroOp op;
    while (ops.size() < n && src->next(op))
        ops.push_back(op);
    return ops;
}

struct SchemeTimes
{
    double dispatchNs = 0, issueNs = 0, wakeupNs = 0;
    uint64_t dispatches = 0, issueCalls = 0, wakeups = 0;
    uint64_t cycles = 0, occupancySum = 0;
};

/**
 * Drive one scheme from core::makeScheme alone: rename, dispatch up to
 * the dispatch width, issue each cycle, complete each op after its
 * latency (loads after address generation plus an L1 hit) and
 * broadcast its tag, retire in order. No branch recovery, no LSQ.
 * Dispatch and wakeup calls are timed per cycle as one batch each,
 * since a single call costs less than a clock read.
 */
void
driveScheme(const sim::ProcessorConfig &proc,
            const std::vector<trace::MicroOp> &ops, SchemeTimes &t)
{
    auto scheme = core::makeScheme(proc.scheme);
    core::InstPool pool(static_cast<uint32_t>(proc.robSize));
    core::Scoreboard sb(proc.numIntPhysRegs + proc.numFpPhysRegs);
    core::FuPool fus(core::FuPoolConfig{8, 4, 4, 4,
                                        proc.scheme.distributedFus,
                                        proc.scheme.numIntQueues,
                                        proc.scheme.numFpQueues});
    sim::RegisterRenamer ren(proc.numIntPhysRegs, proc.numFpPhysRegs);
    power::EventCounters counters;
    scheme->bindScoreboard(sb);

    constexpr size_t kRing = 512;
    std::vector<std::vector<core::InstIdx>> ring(kRing);
    std::deque<core::InstIdx> rob;
    std::vector<core::InstIdx> issued;
    core::DynInst probe;
    size_t next = 0;
    uint64_t seq = 1, cycle = 0;
    const uint64_t cap = ops.size() * 200 + 10000;

    while ((next < ops.size() || !rob.empty()) && cycle < cap) {
        ++cycle;
        sb.syncTo(cycle);
        core::IssueContext ctx{cycle, &sb, &fus, &counters, &pool};

        for (int k = 0; k < proc.commitWidth && !rob.empty(); ++k) {
            core::DynInst &inst = pool.get(rob.front());
            if (!inst.completed)
                break;
            ren.freeAtCommit(inst);
            pool.free(rob.front());
            rob.pop_front();
        }

        // Writeback: one timed batch of this cycle's tag broadcasts.
        auto &due = ring[cycle % kRing];
        uint64_t woke = 0;
        auto a = Clock::now();
        for (core::InstIdx idx : due) {
            core::DynInst &inst = pool.get(idx);
            inst.completed = true;
            if (inst.hasDest()) {
                scheme->onWakeup(inst.pdest, ctx);
                ++woke;
            }
        }
        if (woke) {
            t.wakeupNs += double((Clock::now() - a).count());
            t.wakeups += woke;
        }
        due.clear();

        issued.clear();
        a = Clock::now();
        scheme->issue(ctx, issued);
        t.issueNs += double((Clock::now() - a).count());
        ++t.issueCalls;
        for (core::InstIdx idx : issued) {
            core::DynInst &inst = pool.get(idx);
            uint64_t lat = inst.op.isMem()
                ? uint64_t(trace::AddressLatency) +
                      proc.memory.l1d.hitLatency
                : uint64_t(trace::opLatency(inst.op.op));
            if (inst.hasDest())
                sb.setReadyAt(inst.pdest, cycle + lat);
            ring[(cycle + lat) % kRing].push_back(idx);
        }

        // Dispatch: one timed batch of this cycle's canDispatch +
        // dispatch calls (with the rename bookkeeping between them).
        uint64_t sent = 0;
        a = Clock::now();
        for (int k = 0; k < proc.dispatchWidth && next < ops.size(); ++k) {
            const trace::MicroOp &op = ops[next];
            if (rob.size() >= size_t(proc.robSize) || pool.freeCount() == 0 ||
                !ren.canRename(op))
                break;
            probe.op = op;
            probe.seq = seq;
            if (!scheme->canDispatch(probe, ctx))
                break;
            core::InstIdx idx = pool.alloc(op, seq++);
            core::DynInst &inst = pool.get(idx);
            ren.rename(inst);
            if (inst.hasDest())
                sb.markPending(inst.pdest);
            inst.dispatchCycle = cycle;
            scheme->dispatch(idx, ctx);
            rob.push_back(idx);
            ++next;
            ++sent;
        }
        if (sent) {
            t.dispatchNs += double((Clock::now() - a).count());
            t.dispatches += sent;
        }
        t.occupancySum += scheme->occupancy();
        ++t.cycles;
    }
}

} // namespace

void
measureStandaloneLayers(const Inputs &in, MetricTable &out)
{
    std::vector<std::vector<trace::MicroOp>> streams;
    for (const std::string &b : in.simBenches)
        streams.push_back(streamOf(b, kStreamOps));

    // Issue schemes, each alone on the same dispatch streams.
    for (const Organisation &org : organisations()) {
        spec::ExperimentSpec exp = spec::ExperimentSpec::parse(org.preset);
        SchemeTimes t;
        {
            Tracer::Scope span(tracer(), "core.scheme");
            for (const auto &ops : streams)
                driveScheme(exp.processor, ops, t);
        }
        // Per call, including the batch's one clock-read pair.
        out["core.dispatch_ns." + org.tag] = {
            t.dispatchNs / double(t.dispatches), "ns"};
        out["core.issue_ns." + org.tag] = {t.issueNs / double(t.issueCalls),
                                           "ns"};
        out["core.wakeup_ns." + org.tag] = {t.wakeupNs / double(t.wakeups),
                                            "ns"};
        out["core.occupancy." + org.tag] = {
            double(t.occupancySum) / double(t.cycles), "entries"};
    }

    const sim::ProcessorConfig proc = spec::ExperimentSpec{}.processor;
    uint64_t ops = 0, accesses = 0, branches = 0;
    for (const auto &s : streams)
        ops += s.size();

    // Cache hierarchy on the mix's fetch and data address stream.
    {
        mem::MemoryHierarchy mh(proc.memory);
        const unsigned line = proc.memory.l1i.lineBytes;
        uint64_t sink = 0;
        auto t0 = Clock::now();
        {
            Tracer::Scope span(tracer(), "mem.access");
            for (const auto &s : streams) {
                uint64_t lastLine = ~uint64_t{0};
                for (const trace::MicroOp &op : s) {
                    if (op.pc / line != lastLine) {
                        sink += mh.fetchLatency(op.pc);
                        lastLine = op.pc / line;
                        ++accesses;
                    }
                    if (op.isLoad()) {
                        sink += mh.loadLatency(op.memAddr);
                        ++accesses;
                    } else if (op.isStore()) {
                        sink += mh.storeLatency(op.memAddr);
                        ++accesses;
                    }
                }
            }
        }
        out["mem.ns_per_access"] = {
            secondsSince(t0) * 1e9 / double(accesses), "ns"};
        out["mem.l1d_misses_per_kinst"] = {
            double(mh.l1d().misses()) * 1000.0 / double(ops), "count"};
        out["mem.l2_misses_per_kinst"] = {
            double(mh.l2().misses()) * 1000.0 / double(ops), "count"};
        if (sink == 0)
            throw std::logic_error("every access reported zero latency");
    }

    // Branch predictor on the mix's branches.
    {
        branch::HybridPredictor bp(size_t(proc.gshareEntries),
                                   size_t(proc.bimodalEntries),
                                   size_t(proc.selectorEntries),
                                   size_t(proc.btbEntries),
                                   unsigned(proc.btbAssoc));
        uint64_t wrong = 0;
        auto t0 = Clock::now();
        {
            Tracer::Scope span(tracer(), "branch.predictAndUpdate");
            for (const auto &s : streams)
                for (const trace::MicroOp &op : s)
                    if (op.isBranch()) {
                        ++branches;
                        if (!bp.predictAndUpdate(op.pc, op.taken, op.target))
                            ++wrong;
                    }
        }
        out["branch.ns_per_branch"] = {
            secondsSince(t0) * 1e9 / double(branches), "ns"};
        out["branch.mispredicts_per_kinst"] = {
            double(wrong) * 1000.0 / double(ops), "count"};
    }
}

} // namespace perfbench
