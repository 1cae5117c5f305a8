/** @file Implementation of common.hh. */

#include "common.hh"

#include <sys/resource.h>

#include <ctime>
#include <fstream>

namespace perfbench
{

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace
{
/** Innermost open span of this thread (-1 = none). */
thread_local int64_t tlsOpen = -1;
} // namespace

Tracer::Scope::Scope(Tracer &t, const char *name, uint64_t request)
{
    if (!t.enabled())
        return;
    t_ = &t;
    index_ = t.open(name, request);
}

Tracer::Scope::~Scope()
{
    if (t_)
        t_->close(index_);
}

int64_t
Tracer::open(const char *name, uint64_t request)
{
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.parent = tlsOpen;
    s.request = request == 0 && tlsOpen >= 0
        ? spans_[static_cast<size_t>(tlsOpen)].request
        : request;
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch_)
                    .count();
    spans_.push_back(std::move(s));
    int64_t index = static_cast<int64_t>(spans_.size() - 1);
    tlsOpen = index;
    return index;
}

void
Tracer::close(int64_t index)
{
    int64_t end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
    std::lock_guard<std::mutex> lock(mu_);
    Span &s = spans_[static_cast<size_t>(index)];
    s.endNs = end;
    tlsOpen = s.parent;
}

std::vector<Tracer::Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::map<std::string, double>
Tracer::selfSecondsByLayer() const
{
    std::vector<Span> all = spans();
    std::vector<int64_t> childNs(all.size(), 0);
    for (const Span &s : all) {
        if (s.parent < 0)
            continue;
        const Span &p = all[static_cast<size_t>(s.parent)];
        int64_t lo = std::max(s.startNs, p.startNs);
        int64_t hi = std::min(s.endNs, p.endNs);
        if (hi > lo)
            childNs[static_cast<size_t>(s.parent)] += hi - lo;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::string layer = s.name.substr(0, s.name.find('.'));
        int64_t self = s.endNs - s.startNs - childNs[i];
        out[layer] += static_cast<double>(std::max<int64_t>(self, 0)) * 1e-9;
    }
    return out;
}

void
Tracer::writeTsv(const std::string &path) const
{
    std::ofstream os(path);
    os << "index\tname\tstart_ns\tend_ns\tparent\trequest\n";
    std::vector<Span> all = spans();
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        os << i << '\t' << s.name << '\t' << s.startNs << '\t' << s.endNs
           << '\t' << s.parent << '\t' << s.request << '\n';
    }
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

namespace
{
double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
} // namespace

double
threadCpuSeconds()
{
    return cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
processCpuSeconds()
{
    return cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
