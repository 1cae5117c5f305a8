/**
 * @file
 * Shared pieces of the perfbench driver: wall clock, order statistics,
 * the per-run operation ledger, the metric table and the span tracer.
 *
 * Everything here lives on the benchmark's side of the boundary: the
 * driver times and counts calls into libdiq's public functions and
 * never reaches inside the program.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point a)
{
    return secondsBetween(a, Clock::now());
}

/** Linear-interpolated quantile (q in [0, 1]) of unsorted samples;
 *  0 for an empty set. */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * CPU seconds used so far by the calling thread, or by every thread of
 * the process. The end-to-end figures divide work by these, not by the
 * wall clock: on a shared virtual host the wall clock also counts the
 * time the host ran other guests on this guest's vCPUs (the `steal`
 * column of /proc/stat reached a third of a run's CPU time), which the
 * guest kernel leaves out of a task's CPU time.
 */
double threadCpuSeconds();
double processCpuSeconds();

/**
 * Work done and the CPU seconds spent on it, summed over every round
 * of a run, so the rate counts slow rounds as fully as fast ones.
 */
struct Rate
{
    double work = 0.0;
    double seconds = 0.0;

    void
    add(double w, double s)
    {
        work += w;
        seconds += s;
    }

    double value() const { return seconds > 0 ? work / seconds : 0.0; }
};

/**
 * Attempted/failed operation counts of one phase. A failure is an
 * operation that threw, a point that was quarantined, a submit refused
 * as busy, or an output check that did not match.
 */
struct Ledger
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors; ///< first few failure messages

    void ok() { ++attempted; }

    void
    fail(const std::string &why)
    {
        ++attempted;
        ++failed;
        if (errors.size() < 8)
            errors.push_back(why);
    }
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricTable = std::map<std::string, Metric>;

/**
 * In-memory span recorder. A span covers one call into a libdiq
 * layer: its name is "<layer>.<call>", its parent is the span open on
 * the same thread when it started, and spans of one request (a job, a
 * grid point, a submit) share a request id. Disabled, a Scope costs
 * one branch. Spans are written out once, when the run ends.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int64_t parent = -1; ///< index of the enclosing span, -1 = root
        uint64_t request = 0;
    };

    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, uint64_t request = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_ = nullptr;
        int64_t index_ = -1;
    };

    bool enabled() const { return enabled_.load(); }
    void setEnabled(bool on) { enabled_.store(on); }

    /** Snapshot of every finished span. */
    std::vector<Span> spans() const;

    /** Self time (span minus the part its children cover), summed by
     *  layer (the name's prefix before the first '.'), in seconds. */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Write every span as a tab-separated line. */
    void writeTsv(const std::string &path) const;

  private:
    int64_t open(const char *name, uint64_t request);
    void close(int64_t index);

    std::atomic<bool> enabled_{false};
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< guarded by mu_
};

/** The process-wide tracer (off unless the run is traced). */
Tracer &tracer();

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** 64-bit FNV-1a step over raw bytes, for stream digests. */
inline uint64_t
fnvMix(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
