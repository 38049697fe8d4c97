/**
 * @file
 * The benchmark's own statistics, accounting, span bookkeeping and
 * result-line schema. Header-only and free of library dependencies so
 * selftest.cc can pin every rule without a server.
 *
 * Percentiles are nearest-rank over the raw samples (no interpolation):
 * sample ceil(q * n) of the sorted set. A percentile is reported only
 * when at least kMinBeyond samples lie above it, so p90 needs n >= 100.
 * A failed request is a sample of +infinity: it misses every latency
 * limit, as a user would see it.
 */

#ifndef IVE_PERFBENCH_STATS_HH
#define IVE_PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a reported percentile. */
inline constexpr std::size_t kMinBeyond = 10;

/** 1-based nearest rank of quantile q over n samples, in [1, n]. */
inline std::size_t
nearestRank(std::size_t n, double q)
{
    double want = std::ceil(q * static_cast<double>(n));
    std::size_t rank = want < 1.0 ? 1 : static_cast<std::size_t>(want);
    return std::min(rank, n);
}

/** Samples strictly above the q-th nearest-rank sample. */
inline std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n == 0 ? 0 : n - nearestRank(n, q);
}

/** True when n samples leave at least kMinBeyond beyond quantile q. */
inline bool
supportsPercentile(std::size_t n, double q)
{
    return samplesBeyond(n, q) >= kMinBeyond;
}

/** Smallest sample count whose q-th percentile has kMinBeyond beyond. */
inline std::size_t
minSamplesFor(double q)
{
    std::size_t n = 1;
    while (!supportsPercentile(n, q))
        ++n;
    return n;
}

/** Nearest-rank percentile; NaN for an empty set. Sorts a copy. */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    return v[nearestRank(v.size(), q) - 1];
}

/** Middle value (mean of the two middle ones for an even count). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** How one attempted query ended. */
enum class Outcome
{
    Ok,              ///< Answered on the first QueryRef.
    RecoveredOk,     ///< Refused, re-registered, retry answered.
    RecoveredFailed, ///< Refused, and the one retry failed as well.
    Error,           ///< Typed error, timeout or connection loss.
};

/**
 * failed / attempted accounting. A query is attempted once however many
 * frames it took; it fails when no response came back, and later again
 * when its response decodes to the wrong record (markMismatch).
 */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t refused = 0;    ///< First QueryRef refused by registry.
    std::uint64_t mismatches = 0; ///< Responses decoding to a wrong record.
    std::uint64_t queryRefsSent = 0;

    void
    record(Outcome o)
    {
        ++attempted;
        ++queryRefsSent;
        switch (o) {
        case Outcome::Ok:
            break;
        case Outcome::RecoveredOk:
            ++refused;
            ++queryRefsSent;
            break;
        case Outcome::RecoveredFailed:
            ++refused;
            ++queryRefsSent;
            ++failed;
            break;
        case Outcome::Error:
            ++failed;
            break;
        }
    }

    /** A response that arrived but decoded wrong: counts as failed. */
    void
    markMismatch()
    {
        ++mismatches;
        ++failed;
    }

    std::uint64_t answeredCorrectly() const { return attempted - failed; }

    double
    errorRate() const
    {
        return attempted ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
    }

    Tally &
    operator+=(const Tally &o)
    {
        attempted += o.attempted;
        failed += o.failed;
        refused += o.refused;
        mismatches += o.mismatches;
        queryRefsSent += o.queryRefsSent;
        return *this;
    }
};

/** One named measurement of the result line. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Shortest decimal that reads back as exactly v (all its digits). */
inline std::string
fmtNumber(double v)
{
    if (!std::isfinite(v))
        return "null"; // Never a valid value; resultLine refuses it.
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** True when every metric carries a finite value. */
inline bool
allFinite(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        if (!std::isfinite(m.value))
            return false;
    return true;
}

/**
 * The result line: exactly the keys correct, attempted, failed and
 * metrics, each metric as {"value": v, "unit": u}. Names and units are
 * restricted to [A-Za-z0-9_./%-], so they need no escaping.
 */
inline std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            s += ", ";
        s += "\"" + metrics[i].name + "\": {\"value\": " +
             fmtNumber(metrics[i].value) + ", \"unit\": \"" +
             metrics[i].unit + "\"}";
    }
    s += "}}";
    return s;
}

/** One traced interval; parent indexes the same SpanLog (-1 = root). */
struct Span
{
    const char *name = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int parent = -1;
    std::uint64_t requestId = 0;
};

/**
 * Append-only in-memory span store, one per recording thread. A span's
 * self time is its duration minus the part of it its children cover
 * (overlapping children are counted once).
 */
class SpanLog
{
  public:
    int
    begin(const char *name, std::uint64_t now_ns, int parent,
          std::uint64_t request_id)
    {
        spans_.push_back({name, now_ns, 0, parent, request_id});
        return static_cast<int>(spans_.size()) - 1;
    }

    void end(int idx, std::uint64_t now_ns) { spans_[idx].endNs = now_ns; }

    const std::vector<Span> &spans() const { return spans_; }

    std::uint64_t
    durationNs(int idx) const
    {
        const Span &s = spans_[idx];
        return s.endNs > s.startNs ? s.endNs - s.startNs : 0;
    }

    std::uint64_t
    selfNs(int idx) const
    {
        const Span &p = spans_[idx];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
        for (const Span &c : spans_) {
            if (&c - spans_.data() == idx || c.parent != idx)
                continue;
            std::uint64_t lo = std::max(c.startNs, p.startNs);
            std::uint64_t hi = std::min(c.endNs, p.endNs);
            if (hi > lo)
                kids.emplace_back(lo, hi);
        }
        std::sort(kids.begin(), kids.end());
        std::uint64_t covered = 0, reach = p.startNs;
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, reach);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        return durationNs(idx) - std::min(covered, durationNs(idx));
    }

    /** Self times (ms) of every span with this name. */
    std::vector<double>
    selfMs(const std::string &name) const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (name == spans_[i].name)
                out.push_back(static_cast<double>(
                                  selfNs(static_cast<int>(i))) /
                              1e6);
        return out;
    }

  private:
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // IVE_PERFBENCH_STATS_HH
