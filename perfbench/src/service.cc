/**
 * @file
 * The service phase: serve::Server (what `diq serve` runs) on a
 * Unix-domain socket with its own store, driven by two closed-loop
 * clients over serve::ServeClient. Each client's round is a seeded mix
 * of warm grids (already stored), cold grids (fresh keys) and one grid
 * that both clients submit while the first client's submit of it is
 * being computed (in-flight dedupe). Server workers plus client
 * connections stay within the thread budget.
 */

#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <latch>
#include <map>
#include <random>
#include <set>
#include <thread>

#include "checks.hh"
#include "cli.hh"
#include "phases.hh"
#include "runner/sweep_runner.hh"
#include "runner/thread_pool.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "store/result_store.hh"

namespace fs = std::filesystem;

namespace perfbench
{
namespace
{

using namespace diq;

constexpr unsigned kClients = 2;
/** Warm submits per client per round: 100 a round in all. */
constexpr int kWarmPerRound = 50;

enum class Kind
{
    Warm,
    Cold,
    Shared
};

struct Submit
{
    Kind kind = Kind::Warm;
    std::string grid;
    uint64_t warmup = 0, measure = 0;
};

/** What one submit returned, kept for the untimed checks. */
struct Record
{
    Submit submit;
    std::string csv;
    bool ok = false;
};

class ServicePhase : public Phase
{
  public:
    explicit ServicePhase(const Inputs &in)
        : in_(in),
          workers_(in.threads > kClients ? in.threads - kClients : 1)
    {
    }

    ~ServicePhase() override { stop(); }

    const char *name() const override { return "service"; }

    void
    setup(unsigned rep) override
    {
        checkServer();
        stop();
        checkedServer_ = false;
        submitted_.clear();
        pointsSubmitted_ = 0;
        root_ = fs::path(in_.runDir) / ("service-" + std::to_string(rep));
        serve::ServerOptions opts;
        opts.socketPath =
            (fs::path(in_.runDir) / ("s" + std::to_string(rep) + ".sock"))
                .string();
        opts.storeDir = root_.string();
        opts.workers = workers_;
        server_ = std::make_unique<serve::Server>(opts);
        serverThread_ = std::thread([this] {
            try {
                server_->run();
            } catch (const std::exception &e) {
                serverError_ = e.what();
            }
        });
        for (unsigned c = 0; c < kClients; ++c) {
            Tracer::Scope span(tracer(), "serve.ServeClient");
            clients_.push_back(
                std::make_unique<serve::ServeClient>(opts.socketPath));
        }

        // The first, populating submit: every organisation on every
        // service profile, computed and stored by the server.
        Submit pop{Kind::Cold, "scheme=" + orgList(0, 4) + " bench=" +
                                   benchList(0, in_.serviceBenches.size()),
                   in_.svcWarmup, in_.svcMeasure};
        Record rec = run(*clients_[0], pop, nullptr);
        if (!rec.ok)
            expect("populating submit failed");
        records_.push_back(std::move(rec));
    }

    void
    round(unsigned r) override
    {
        std::vector<std::vector<Submit>> plans(kClients);
        std::mt19937_64 rng(in_.seed * 1000003u + r);
        // Fresh budgets: 2 cold grids per client plus 1 shared grid.
        uint64_t fresh = in_.svcMeasure + 1000 + uint64_t(r) * 8;
        Submit shared = coldGrid(rng, fresh, 2, Kind::Shared);
        for (unsigned c = 0; c < kClients; ++c) {
            auto &p = plans[c];
            for (int k = 0; k < kWarmPerRound; ++k) {
                if (k == 15 || k == 35)
                    p.push_back(coldGrid(rng, fresh + 1 + 2 * c + k / 20, 1,
                                         Kind::Cold));
                if (k == 25)
                    p.push_back(shared);
                p.push_back(warmGrid(rng));
            }
        }

        // Client 0 submits the shared grid first; the others send it
        // once client 0's first row is back. The server admits a whole
        // grid before it streams a row, so every point of the grid is
        // then in flight (the others attach to it) or already stored.
        // Sending it at the same moment instead lets a submit miss both
        // the dedupe table and the store and compute a point twice
        // (perfbench/README.md, "Output checks").
        std::latch sharedAdmitted(1);
        std::vector<std::vector<Record>> out(kClients);
        std::vector<std::vector<double>> warm(kClients), cold(kClients),
            first(kClients);
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClients; ++c)
            threads.emplace_back([&, c] {
                for (const Submit &s : plans[c]) {
                    const bool leads = s.kind == Kind::Shared && c == 0;
                    if (s.kind == Kind::Shared && !leads)
                        sharedAdmitted.wait();
                    bool signalled = false;
                    auto admitted = [&] {
                        if (leads && !signalled) {
                            signalled = true;
                            sharedAdmitted.count_down();
                        }
                    };
                    double firstRow = 0;
                    auto t0 = Clock::now();
                    Record rec = run(*clients_[c], s, &firstRow, admitted);
                    double ms = secondsSince(t0) * 1e3;
                    admitted(); // also when the submit failed
                    if (s.kind == Kind::Warm) {
                        warm[c].push_back(ms);
                    } else {
                        cold[c].push_back(ms);
                        first[c].push_back(firstRow);
                    }
                    out[c].push_back(std::move(rec));
                }
            });
        for (auto &t : threads)
            t.join();
        for (unsigned c = 0; c < kClients; ++c) {
            warmMs_.insert(warmMs_.end(), warm[c].begin(), warm[c].end());
            coldMs_.insert(coldMs_.end(), cold[c].begin(), cold[c].end());
            firstRowMs_.insert(firstRowMs_.end(), first[c].begin(),
                               first[c].end());
            for (Record &rec : out[c])
                records_.push_back(std::move(rec));
        }
        checkRecords();
    }

    void
    verify() override
    {
        checkServer();
    }

    void
    report(MetricTable &out) override
    {
        // None: submit latencies are wall-clock waits across the
        // server's and the clients' threads, which the host's vCPU
        // steal spread 50-70% from run to run (perfbench/README.md,
        // "Noise"). They are per-layer metrics instead.
        (void)out;
    }

    void
    layers(MetricTable &out) override
    {
        auto st = status();
        double points = double(pointsSubmitted_);
        out["serve.first_row_ms"] = {median(firstRowMs_), "ms"};
        out["serve.cold_submit_p50_ms"] = {median(coldMs_), "ms"};
        out["serve.warm_submit_p50_ms"] = {median(warmMs_), "ms"};
        out["serve.warm_submit_p90_ms"] = {quantile(warmMs_, 0.9), "ms"};
        out["serve.store_hit_ratio"] = {double(count(st, "store_hits")) / points,
                                        "ratio"};
        out["serve.dedupe_ratio"] = {
            double(count(st, "dedupe_attached")) / points, "ratio"};
        double queued = double(count(st, "queued"));
        double idle = double(count(st, "dispatched_idle"));
        out["serve.queued_ratio"] = {
            queued + idle > 0 ? queued / (queued + idle) : 0.0, "ratio"};

        const int connects = 20;
        auto t0 = Clock::now();
        for (int i = 0; i < connects; ++i) {
            Tracer::Scope span(tracer(), "serve.ServeClient");
            serve::ServeClient c(server_->options().socketPath);
        }
        out["serve.connect_ms"] = {secondsSince(t0) * 1e3 / connects, "ms"};

        out["serve.frame_rt_us"] = {frameRoundTripUs(), "us"};
    }

    void
    stop() override
    {
        clients_.clear();
        if (server_) {
            server_->requestStop();
            serverThread_.join();
            server_.reset();
        }
        if (!serverError_.empty()) {
            expect("server: " + serverError_);
            serverError_.clear();
        }
    }

  private:
    /** Untimed, before a server stops: it computed each distinct point
     *  submitted to it exactly once and refused no submit. */
    void
    checkServer()
    {
        if (!server_ || checkedServer_)
            return;
        checkedServer_ = true;
        auto st = status();
        expect(checkComputedCount(count(st, "computed"), submitted_.size()));
        expect(checkNoRefusals(count(st, "rejected_busy")));
    }

    /**
     * Untimed, after each round: every submit's CSV equals an
     * in-process, store-free sweep of the same grid computed without
     * the server. Checking per round keeps memory flat however many
     * rounds a run makes; references of warm grids are kept, as those
     * grids recur.
     */
    void
    checkRecords()
    {
        std::vector<const Submit *> missing;
        std::set<std::string> queued;
        for (const Record &r : records_) {
            std::string k = refKey(r.submit);
            if (!warmRefs_.count(k) && queued.insert(k).second)
                missing.push_back(&r.submit);
        }
        std::vector<std::string> csvs(missing.size());
        {
            runner::ThreadPool pool(in_.threads);
            for (size_t i = 0; i < missing.size(); ++i)
                pool.submit([&, i] { csvs[i] = inProcessCsv(*missing[i]); });
            pool.wait();
        }
        std::map<std::string, std::string> refs;
        for (size_t i = 0; i < missing.size(); ++i) {
            std::string k = refKey(*missing[i]);
            if (missing[i]->kind == Kind::Warm)
                warmRefs_[k] = csvs[i];
            else
                refs[k] = csvs[i];
        }
        for (const Record &r : records_) {
            if (!r.ok)
                continue;
            std::string k = refKey(r.submit);
            auto w = warmRefs_.find(k);
            expect(checkSameBytes("submit CSV vs in-process sweep of " +
                                      r.submit.grid,
                                  w != warmRefs_.end() ? w->second : refs[k],
                                  r.csv));
        }
        records_.clear();
    }

    std::string
    orgList(size_t first, size_t n) const
    {
        std::string s;
        for (size_t i = first; i < first + n; ++i)
            s += (s.empty() ? "" : ",") + organisations()[i % 4].preset;
        return s;
    }

    std::string
    benchList(size_t first, size_t n) const
    {
        const auto &b = in_.serviceBenches;
        std::string s;
        for (size_t i = first; i < first + n; ++i)
            s += (s.empty() ? "" : ",") + b[i % b.size()];
        return s;
    }

    /** Two organisations x two profiles, all in the populated grid. */
    Submit
    warmGrid(std::mt19937_64 &rng) const
    {
        size_t o = rng() % 4, b = rng() % in_.serviceBenches.size();
        return {Kind::Warm,
                "scheme=" + orgList(o, 2) + " bench=" + benchList(b, 2),
                in_.svcWarmup, in_.svcMeasure};
    }

    /** `orgs` organisations x two profiles under a budget no one
     *  used. */
    Submit
    coldGrid(std::mt19937_64 &rng, uint64_t measure, size_t orgs,
             Kind kind) const
    {
        size_t o = rng() % 4, b = rng() % in_.serviceBenches.size();
        return {kind,
                "scheme=" + orgList(o, orgs) + " bench=" + benchList(b, 2),
                in_.svcWarmup, measure};
    }

    static std::string
    refKey(const Submit &s)
    {
        return s.grid + "|" + std::to_string(s.warmup) + "|" +
               std::to_string(s.measure);
    }

    static runner::RunnerOptions
    optionsFor(const Submit &s)
    {
        runner::RunnerOptions opts;
        opts.warmupInsts = s.warmup;
        opts.measureInsts = s.measure;
        opts.jobs = 1;
        return opts;
    }

    static std::string
    inProcessCsv(const Submit &s)
    {
        runner::SweepSpec grid = runner::SweepSpec::fromText(s.grid);
        runner::RunnerOptions opts = optionsFor(s);
        runner::SweepRunner runner(opts);
        return bench::renderSweepCsv(grid, opts,
                                     runner.runAllSupervised(grid, nullptr));
    }

    /** Submit one grid and render its CSV as `diq submit` does;
     *  `onFirstRow` runs when the first row arrives. */
    Record
    run(serve::ServeClient &client, const Submit &s, double *firstRowMs,
        const std::function<void()> &onFirstRow = {})
    {
        Record rec;
        rec.submit = s;
        runner::SweepSpec grid = runner::SweepSpec::fromText(s.grid);
        std::vector<runner::SimResult> results(grid.size());
        std::vector<runner::JobOutcome> outcomes(grid.size());
        auto t0 = Clock::now();
        bool sawRow = false;
        try {
            Tracer::Scope span(tracer(), "serve.submit",
                               nextRequest_.fetch_add(1) + 1);
            client.submit(s.warmup, s.measure, s.grid,
                          [&](const serve::RowOutcome &row) {
                              if (!sawRow) {
                                  if (firstRowMs)
                                      *firstRowMs = secondsSince(t0) * 1e3;
                                  if (onFirstRow)
                                      onFirstRow();
                              }
                              sawRow = true;
                              if (row.index >= grid.size())
                                  throw serve::ClientError("row out of range");
                              runner::JobOutcome &o = outcomes[row.index];
                              o.attempts = row.attempts;
                              if (row.result) {
                                  results[row.index] = *row.result;
                                  o.result = &results[row.index];
                              } else {
                                  o.error = row.error;
                              }
                          });
            rec.ok = true;
            for (const runner::JobOutcome &o : outcomes)
                if (!o.result)
                    rec.ok = false;
        } catch (const serve::ServerBusy &e) {
            std::lock_guard<std::mutex> lock(mu_);
            ledger.fail(std::string("submit refused: ") + e.what());
            return rec;
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(mu_);
            ledger.fail(std::string("submit failed: ") + e.what());
            return rec;
        }
        rec.csv = bench::renderSweepCsv(grid, optionsFor(s), outcomes);

        std::lock_guard<std::mutex> lock(mu_);
        rec.ok ? ledger.ok() : ledger.fail("submit returned a failed row");
        pointsSubmitted_ += grid.size();
        for (const auto &[exp, profile] : grid.points()) {
            spec::ExperimentSpec e = exp;
            e.warmupInsts = s.warmup;
            e.measureInsts = s.measure;
            submitted_.insert(e.canonicalLine());
        }
        return rec;
    }

    std::map<std::string, std::string>
    status()
    {
        serve::ServeClient c(server_->options().socketPath);
        auto kv = c.status();
        return {kv.begin(), kv.end()};
    }

    static uint64_t
    count(const std::map<std::string, std::string> &st, const std::string &k)
    {
        auto it = st.find(k);
        return it == st.end() ? 0 : std::stoull(it->second);
    }

    /** writeFrame + readFrame of a row-sized frame over a socket pair. */
    double
    frameRoundTripUs()
    {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
            throw std::runtime_error("socketpair failed");
        std::string payload = "row\t0\t" + std::string(1100, 'x');
        const int reps = 2000;
        auto t0 = Clock::now();
        for (int i = 0; i < reps; ++i) {
            Tracer::Scope span(tracer(), "serve.frame");
            serve::writeFrame(fds[0], payload);
            auto got = serve::readFrame(fds[1]);
            if (!got || got->size() != payload.size())
                expect("frame round trip changed the payload");
        }
        double us = secondsSince(t0) * 1e6 / reps;
        ::close(fds[0]);
        ::close(fds[1]);
        return us;
    }

    const Inputs &in_;
    const unsigned workers_;
    fs::path root_;
    std::unique_ptr<serve::Server> server_;
    std::thread serverThread_;
    std::string serverError_;
    bool checkedServer_ = false;
    std::vector<std::unique_ptr<serve::ServeClient>> clients_;
    std::atomic<uint64_t> nextRequest_{0};

    std::mutex mu_; ///< guards ledger, records' bookkeeping below
    std::set<std::string> submitted_;
    uint64_t pointsSubmitted_ = 0;
    std::vector<Record> records_; ///< this round's, until checked
    std::map<std::string, std::string> warmRefs_;
    /** Latency of every warm and every cold submit of the run, and
     *  the first row of every cold one, in ms. */
    std::vector<double> warmMs_, coldMs_, firstRowMs_;
};

} // namespace

std::unique_ptr<Phase>
makeServicePhase(const Inputs &in)
{
    return std::make_unique<ServicePhase>(in);
}

} // namespace perfbench
