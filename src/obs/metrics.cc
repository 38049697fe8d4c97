#include "obs/metrics.hh"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace ive {
namespace obs {

u64
nowNs()
{
    // The library's sanctioned monotonic clock read (lint raw-chrono).
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

u64
HistogramSnapshot::percentile(double q) const
{
    if (count == 0)
        return 0;
    // Nearest rank: sample ceil(q * count) of the sorted recording,
    // clamped to [1, count]. Buckets preserve the value order, so the
    // first bucket whose cumulative count reaches the rank is exactly
    // the bucket holding that sample; report its upper bound.
    double want = std::ceil(q * static_cast<double>(count));
    u64 rank = want < 1.0 ? 1 : static_cast<u64>(want);
    if (rank > count)
        rank = count;
    u64 cum = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        cum += buckets[i];
        if (cum >= rank)
            return Histogram::bucketUpperBound(static_cast<int>(i));
    }
    return 0; // Unreachable: cum == count >= rank at the last bucket.
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot s;
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.buckets.resize(kNumBuckets);
    for (int i = 0; i < kNumBuckets; ++i)
        s.buckets[static_cast<size_t>(i)] =
            buckets_[static_cast<size_t>(i)].load(
                std::memory_order_relaxed);
    return s;
}

void
Histogram::reset()
{
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
}

Registry::Entry &
Registry::find(const std::string &name, Kind kind,
               const std::string &help)
{
    LockGuard lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
        Entry e;
        e.kind = kind;
        e.help = help;
        switch (kind) {
        case Kind::Counter:
            e.counter = std::make_unique<Counter>();
            break;
        case Kind::Gauge:
            e.gauge = std::make_unique<Gauge>();
            break;
        case Kind::Histogram:
            e.histogram = std::make_unique<Histogram>();
            break;
        }
        it = entries_.emplace(name, std::move(e)).first;
    } else if (it->second.kind != kind) {
        throw std::logic_error("obs::Registry: metric '" + name +
                               "' re-registered with a different kind");
    } else if (it->second.help.empty()) {
        // A reader (test, bench) may look a name up before the layer
        // that records it; the recorder's help still renders.
        it->second.help = help;
    }
    return it->second;
}

Counter &
Registry::counter(const std::string &name, const std::string &help)
{
    return *find(name, Kind::Counter, help).counter;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help)
{
    return *find(name, Kind::Gauge, help).gauge;
}

Histogram &
Registry::histogram(const std::string &name, const std::string &help)
{
    return *find(name, Kind::Histogram, help).histogram;
}

namespace {

/** Splits "base{labels}" into (base, labels-without-braces). */
std::pair<std::string, std::string>
splitLabels(const std::string &name)
{
    size_t brace = name.find('{');
    if (brace == std::string::npos || name.back() != '}')
        return {name, ""};
    return {name.substr(0, brace),
            name.substr(brace + 1, name.size() - brace - 2)};
}

/** `{labels}` / `{labels,extra}` / `{extra}` / `` sample suffix. */
std::string
labelSuffix(const std::string &labels, const std::string &extra)
{
    if (labels.empty() && extra.empty())
        return "";
    std::string joined = labels;
    if (!labels.empty() && !extra.empty())
        joined += ",";
    joined += extra;
    return "{" + joined + "}";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

char *
fmtU64(char *buf, size_t n, u64 v)
{
    std::snprintf(buf, n, "%" PRIu64, v);
    return buf;
}

} // namespace

std::string
Registry::renderPrometheus() const
{
    // Group label variants under their base name so each family gets
    // exactly one HELP/TYPE header; std::map keeps both the family
    // order and the per-family series order deterministic.
    struct Series
    {
        std::string labels;
        const Entry *entry;
    };
    struct Family
    {
        Kind kind;
        std::string help;
        std::vector<Series> series;
    };
    std::map<std::string, Family> families;
    {
        LockGuard lock(mu_);
        for (const auto &[name, entry] : entries_) {
            auto [base, labels] = splitLabels(name);
            Family &fam = families
                              .try_emplace(base, Family{entry.kind,
                                                        entry.help,
                                                        {}})
                              .first->second;
            fam.series.push_back({labels, &entry});
        }
    }

    std::string out;
    char num[32];
    for (const auto &[base, fam] : families) {
        if (!fam.help.empty())
            out += "# HELP " + base + " " + fam.help + "\n";
        const char *type = fam.kind == Kind::Counter    ? "counter"
                           : fam.kind == Kind::Gauge    ? "gauge"
                                                        : "histogram";
        out += "# TYPE " + base + " " + type + "\n";
        for (const Series &s : fam.series) {
            if (fam.kind == Kind::Counter) {
                out += base + labelSuffix(s.labels, "") + " " +
                       fmtU64(num, sizeof num,
                              s.entry->counter->value()) +
                       "\n";
            } else if (fam.kind == Kind::Gauge) {
                std::snprintf(num, sizeof num, "%" PRIi64,
                              s.entry->gauge->value());
                out += base + labelSuffix(s.labels, "") + " " + num +
                       "\n";
            } else {
                HistogramSnapshot snap = s.entry->histogram->snapshot();
                // Cumulative counts at the upper bound of every
                // occupied bucket, then the mandatory +Inf.
                u64 cum = 0;
                for (size_t i = 0; i < snap.buckets.size(); ++i) {
                    if (snap.buckets[i] == 0)
                        continue;
                    cum += snap.buckets[i];
                    std::string le =
                        fmtU64(num, sizeof num,
                               Histogram::bucketUpperBound(
                                   static_cast<int>(i)));
                    out += base + "_bucket" +
                           labelSuffix(s.labels, "le=\"" + le + "\"") +
                           " " + fmtU64(num, sizeof num, cum) + "\n";
                }
                out += base + "_bucket" +
                       labelSuffix(s.labels, "le=\"+Inf\"") + " " +
                       fmtU64(num, sizeof num, snap.count) + "\n";
                out += base + "_sum" + labelSuffix(s.labels, "") + " " +
                       fmtU64(num, sizeof num, snap.sum) + "\n";
                out += base + "_count" + labelSuffix(s.labels, "") +
                       " " + fmtU64(num, sizeof num, snap.count) +
                       "\n";
            }
        }
    }
    return out;
}

std::string
Registry::renderJson() const
{
    std::string counters, gauges, histograms;
    char num[32];
    {
        LockGuard lock(mu_);
        for (const auto &[name, entry] : entries_) {
            // Built with += (not literal + temporary) to sidestep a
            // GCC 12 -Wrestrict false positive on operator+.
            std::string key = "\"";
            key += jsonEscape(name);
            key += "\"";
            if (entry.kind == Kind::Counter) {
                if (!counters.empty())
                    counters += ", ";
                counters += key + ": " +
                            fmtU64(num, sizeof num,
                                   entry.counter->value());
            } else if (entry.kind == Kind::Gauge) {
                std::snprintf(num, sizeof num, "%" PRIi64,
                              entry.gauge->value());
                if (!gauges.empty())
                    gauges += ", ";
                gauges += key + ": " + num;
            } else {
                HistogramSnapshot s = entry.histogram->snapshot();
                if (!histograms.empty())
                    histograms += ", ";
                histograms += key + ": {\"count\": " +
                              fmtU64(num, sizeof num, s.count);
                histograms += ", \"sum\": " +
                              std::string(
                                  fmtU64(num, sizeof num, s.sum));
                histograms += ", \"p50\": " +
                              std::string(fmtU64(num, sizeof num,
                                                 s.percentile(0.50)));
                histograms += ", \"p95\": " +
                              std::string(fmtU64(num, sizeof num,
                                                 s.percentile(0.95)));
                histograms += ", \"p99\": " +
                              std::string(fmtU64(num, sizeof num,
                                                 s.percentile(0.99)));
                histograms += "}";
            }
        }
    }
    return "{\n  \"counters\": {" + counters + "},\n  \"gauges\": {" +
           gauges + "},\n  \"histograms\": {" + histograms + "}\n}\n";
}

void
Registry::resetAll()
{
    LockGuard lock(mu_);
    for (auto &[name, entry] : entries_) {
        switch (entry.kind) {
        case Kind::Counter:
            entry.counter->reset();
            break;
        case Kind::Gauge:
            entry.gauge->reset();
            break;
        case Kind::Histogram:
            entry.histogram->reset();
            break;
        }
    }
}

Registry &
Registry::global()
{
    // Leaked on purpose: see the header. Construction is thread-safe
    // (C++11 magic static), destruction never happens.
    static Registry *g = new Registry();
    return *g;
}

} // namespace obs
} // namespace ive
