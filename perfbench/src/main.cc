/**
 * @file
 * perfbench: one benchmark for diq.
 *
 *   perfbench --workload spec|stress --seed N --seconds S --trace 0|1
 *
 * Every run executes the simulate, replay, campaign and service phases
 * (phases.hh) on the inputs the workload and seed build, checks every
 * output, and prints as its last line one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * spans are recorded around every call into libdiq (in alternate
 * rounds, so the tracing overhead is measured in the same run) and the
 * metrics are the per-layer ones. See perfbench/README.md.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <thread>

#include "phases.hh"
#include "trace/scenarios.hh"
#include "trace/spec2000.hh"

namespace fs = std::filesystem;

namespace perfbench
{

const std::vector<Organisation> &
organisations()
{
    static const std::vector<Organisation> orgs = {
        {"iq6464", "cam"},
        {"if_distr", "issuefifo"},
        {"latfifo_8x8_8x16", "latfifo"},
        {"mb_distr", "mixbuff"},
    };
    return orgs;
}

namespace
{

uint64_t
splitmix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

Inputs
Inputs::make(const std::string &workload, uint64_t seed,
             const std::string &runDir)
{
    Inputs in;
    in.seed = seed;
    in.runDir = runDir;
    unsigned hw = std::thread::hardware_concurrency();
    // Two threads at most: on a few shared vCPUs, more measures the
    // host's scheduler rather than the program.
    in.threads = std::max(1u, std::min(2u, hw ? hw : 1u));

    // The seed picks the fuzz phase graph and shifts every budget, so
    // stream positions and store keys differ per seed while the amount
    // of work stays the same.
    const uint64_t off = seed % 64;
    const std::string fuzz =
        "fuzz:" + std::to_string(splitmix(seed) % 1000000) +
        ":phases=8:ops=2000";

    if (workload == "spec") {
        in.simBenches = {"swim", "gcc", "mcf", fuzz};
        in.simSpecLike = {true, true, true, false};
        in.replayBench = "swim";
        for (const auto &p : diq::trace::allSpecProfiles())
            in.gridBenches.push_back(p.name);
        in.serviceBenches = {"swim", "gcc", "mcf",  "applu",
                             "gzip", "art", "mgrid", "vpr"};
    } else if (workload == "stress") {
        in.simBenches = {"scenario:chain_storm", "scenario:branch_churn",
                         "scenario:mem_thrash", fuzz};
        in.simSpecLike = {false, false, false, false};
        in.replayBench = "scenario:bursty";
        for (const auto &s : diq::trace::scenarioRegistry())
            in.gridBenches.push_back("scenario:" + s.name);
        in.serviceBenches = {"scenario:chain_storm", "scenario:steer_flip",
                             "scenario:lsq_pressure", "scenario:bursty",
                             "scenario:fp_flood",   "scenario:store_storm"};
    } else {
        throw std::invalid_argument("unknown workload '" + workload +
                                    "' (spec or stress)");
    }

    in.simWarmup = 300000 + 16 * off;
    in.simChunk = 30000;
    in.fuzzChunk = 3000;
    in.replayWarmup = 20000 + 16 * off;
    in.replayMeasure = 200000;
    in.intervals = 4;
    in.campWarmup = 1000;
    // Long enough that simulation, not the durable commit (whose CPU
    // cost follows the host's load), is most of a cold point's time.
    in.campMeasure = 12000 + off;
    in.svcWarmup = 1000;
    in.svcMeasure = 3000 + off;
    return in;
}

namespace
{

constexpr unsigned kSetups = 6;
constexpr unsigned kMinRounds = 4;

/** Layers that record spans, for the self-time metrics. */
const char *const kLayers[] = {"core",  "sim",  "mem",   "branch",
                               "trace", "power", "ckpt", "spec",
                               "runner", "store", "serve"};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 0;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload spec|stress --seed N "
                 "--seconds S --trace 0|1\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v), haveSeconds = true;
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else
                usage("unknown argument " + k);
        } catch (const std::logic_error &) {
            usage("bad value '" + v + "' for " + k);
        }
    }
    if (a.workload.empty() || !haveSeconds || a.seconds <= 0)
        usage("--workload and a positive --seconds are required");
    return a;
}

void
printJson(bool correct, uint64_t attempted, uint64_t failed,
          const MetricTable &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const auto &[name, m] : metrics) {
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), v, m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int
runBenchmark(const Args &args)
{
    const std::string runDir =
        ".bench_run/" + args.workload + "-" + std::to_string(::getpid());
    Inputs in = Inputs::make(args.workload, args.seed, runDir);
    fs::remove_all(runDir);
    fs::create_directories(runDir);

    std::vector<std::unique_ptr<Phase>> phases;
    phases.push_back(makeSimulatePhase(in));
    phases.push_back(makeReplayPhase(in));
    phases.push_back(makeCampaignPhase(in));
    phases.push_back(makeServicePhase(in));

    Tracer &tr = tracer();
    tr.setEnabled(args.trace);

    // Set up once, then run rounds of all phases until the measuring
    // time is spent. Set-up k (0 < k < kSetups) rebuilds every phase
    // from scratch once k/kSetups of that time has passed, so the
    // set-ups, like the rounds, sample the whole run; the median of
    // their process CPU seconds is setup_s. A traced run traces every
    // other round and compares round times.
    std::vector<double> setupS;
    std::vector<double> setupBy(phases.size(), 0.0), roundBy(phases.size(), 0.0);
    auto setUp = [&](unsigned rep) {
        tr.setEnabled(args.trace);
        const double c0 = processCpuSeconds();
        for (size_t i = 0; i < phases.size(); ++i) {
            const double c1 = processCpuSeconds();
            phases[i]->setup(rep);
            setupBy[i] += (processCpuSeconds() - c1) / kSetups;
        }
        setupS.push_back(processCpuSeconds() - c0);
    };
    setUp(0);

    std::vector<double> tracedRound, plainRound;
    double measured = 0;
    unsigned r = 0, next = 1; // next: the next set-up to run
    do {
        if (next < kSetups && measured >= args.seconds * next / kSetups)
            setUp(next++);
        if (args.trace)
            tr.setEnabled(r % 2 == 1);
        auto t0 = Clock::now();
        for (size_t i = 0; i < phases.size(); ++i) {
            auto t1 = Clock::now();
            phases[i]->round(r);
            roundBy[i] += secondsSince(t1);
        }
        double dt = secondsSince(t0);
        measured += dt;
        (tr.enabled() ? tracedRound : plainRound).push_back(dt);
        ++r;
    } while (r < kMinRounds || measured < args.seconds || next < kSetups);
    tr.setEnabled(args.trace);

    for (auto &p : phases)
        p->verify();

    MetricTable metrics;
    if (!args.trace) {
        for (auto &p : phases)
            p->report(metrics);
        metrics["setup_s"] = {median(setupS), "s"};
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    } else {
        for (auto &p : phases)
            p->layers(metrics);
        measureStandaloneLayers(in, metrics);
        auto self = tr.selfSecondsByLayer();
        for (const char *layer : kLayers)
            metrics[std::string("self_s.") + layer] = {self[layer], "s"};
        metrics["trace.overhead_ratio"] = {
            median(tracedRound) / median(plainRound), "ratio"};
        fs::create_directories(".bench_out");
        tr.writeTsv(".bench_out/spans-" + args.workload + ".tsv");
    }
    for (auto &p : phases)
        p->stop();

    uint64_t attempted = 0, failed = 0;
    bool correct = true;
    std::cout << "perfbench " << args.workload << " seed " << args.seed
              << ": " << r << " rounds, " << in.threads << " threads\n";
    for (size_t i = 0; i < phases.size(); ++i) {
        const auto &p = phases[i];
        attempted += p->ledger.attempted;
        failed += p->ledger.failed;
        correct = correct && p->mismatches.empty();
        std::cout << "phase " << p->name() << ": attempted "
                  << p->ledger.attempted << " failed " << p->ledger.failed
                  << "; set-up " << setupBy[i] << " CPU s, rounds and their checks "
                  << roundBy[i] << " s\n";
        for (const std::string &e : p->ledger.errors)
            std::cout << "  failure: " << e << "\n";
    }
    fs::remove_all(runDir);
    printJson(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args args = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::runBenchmark(args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
