/**
 * @file
 * Telemetry layer: histogram bucket math and percentile bounds against
 * a reference sort, concurrent recording, registry exposition goldens
 * (Prometheus text + JSON), and Chrome-trace capture (span nesting,
 * cross-thread merge, IVE_TRACE_DIR smoke).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/trace.hh"

using namespace ive;
using obs::Histogram;

TEST(ObsHistogram, SmallValuesMapToExactUnitBuckets)
{
    for (u64 v = 0; v < u64{2} * Histogram::kSubBuckets; ++v) {
        int b = Histogram::bucketFor(v);
        EXPECT_EQ(b, static_cast<int>(v));
        EXPECT_EQ(Histogram::bucketLowerBound(b), v);
        EXPECT_EQ(Histogram::bucketUpperBound(b), v);
    }
}

TEST(ObsHistogram, BucketBoundsBracketEveryValue)
{
    // Sweep octave boundaries and their neighborhoods up to 2^40.
    std::vector<u64> probe;
    for (int e = 0; e <= 40; ++e) {
        u64 p = u64{1} << e;
        for (i64 d = -3; d <= 3; ++d) {
            if (d < 0 && p < static_cast<u64>(-d))
                continue;
            probe.push_back(p + static_cast<u64>(d));
        }
    }
    int prev = -1;
    std::sort(probe.begin(), probe.end());
    for (u64 v : probe) {
        int b = Histogram::bucketFor(v);
        ASSERT_GE(b, prev); // Total order preserved.
        prev = b;
        EXPECT_LE(Histogram::bucketLowerBound(b), v);
        EXPECT_GE(Histogram::bucketUpperBound(b), v);
        // Relative width <= 2^-kSubBits above the exact range.
        u64 lo = Histogram::bucketLowerBound(b);
        u64 hi = Histogram::bucketUpperBound(b);
        EXPECT_LE(hi - lo, lo >> Histogram::kSubBits);
    }
}

TEST(ObsHistogram, PercentileMatchesReferenceSortWithinBucketWidth)
{
    std::mt19937_64 rng(42);
    std::vector<u64> values;
    for (int i = 0; i < 5000; ++i) {
        // Log-uniform spread across nanoseconds-to-seconds scales.
        int shift = static_cast<int>(rng() % 30);
        values.push_back((rng() & ((u64{1} << shift) | 0xff)) + 1);
    }
    Histogram h;
    for (u64 v : values)
        h.record(v);
    std::sort(values.begin(), values.end());

    obs::HistogramSnapshot s = h.snapshot();
    ASSERT_EQ(s.count, values.size());
    for (double q : {0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0}) {
        u64 rank = static_cast<u64>(
            std::ceil(q * static_cast<double>(values.size())));
        u64 ref = values[rank - 1];
        u64 est = s.percentile(q);
        EXPECT_GE(est, ref) << "q=" << q;
        // est is the upper bound of ref's bucket: off by at most the
        // bucket width, <= ref * 2^-kSubBits (+1 for the exact range).
        EXPECT_LE(est, ref + (ref >> Histogram::kSubBits) + 1)
            << "q=" << q;
    }
}

TEST(ObsHistogram, PercentileExactForSmallValues)
{
    Histogram h;
    for (u64 v : {u64{1}, u64{5}, u64{5}, u64{60}})
        h.record(v);
    obs::HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.percentile(0.25), 1u);
    EXPECT_EQ(s.percentile(0.50), 5u);
    EXPECT_EQ(s.percentile(0.75), 5u);
    EXPECT_EQ(s.percentile(1.0), 60u);
    EXPECT_EQ(s.sum, 71u);
    EXPECT_DOUBLE_EQ(s.mean(), 71.0 / 4.0);
    EXPECT_EQ(obs::HistogramSnapshot{}.percentile(0.5), 0u);
}

TEST(ObsHistogram, ConcurrentRecordingLosesNothing)
{
    Histogram h;
    constexpr int kThreads = 4;
    constexpr u64 kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            for (u64 i = 0; i < kPerThread; ++i)
                h.record(i % 1000 + static_cast<u64>(t));
        });
    }
    for (auto &th : threads)
        th.join();
    obs::HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, kThreads * kPerThread);
    u64 want_sum = 0;
    for (int t = 0; t < kThreads; ++t)
        for (u64 i = 0; i < kPerThread; ++i)
            want_sum += i % 1000 + static_cast<u64>(t);
    EXPECT_EQ(s.sum, want_sum);
    u64 bucket_total = 0;
    for (u64 b : s.buckets)
        bucket_total += b;
    EXPECT_EQ(bucket_total, s.count);
}

TEST(ObsRegistry, StableHandlesAndKindMismatch)
{
    obs::Registry r;
    obs::Counter &a = r.counter("ive_x_total");
    a.add(7);
    EXPECT_EQ(&r.counter("ive_x_total"), &a);
    EXPECT_EQ(r.counter("ive_x_total").value(), 7u);
    EXPECT_THROW(r.gauge("ive_x_total"), std::logic_error);
    EXPECT_THROW(r.histogram("ive_x_total"), std::logic_error);
    r.resetAll();
    EXPECT_EQ(a.value(), 0u);
}

TEST(ObsRegistry, PrometheusRenderGolden)
{
    obs::Registry r;
    r.counter("ive_test_ops_total{op=\"a\"}", "ops by kind").add(3);
    r.counter("ive_test_ops_total{op=\"b\"}").add(5);
    r.gauge("ive_test_depth", "queue depth").set(-2);
    obs::Histogram &h = r.histogram("ive_test_lat_ns", "latency");
    h.record(1);
    h.record(5);
    h.record(5);
    h.record(100); // Bucket [102, 101+..]: upper bound 101.

    EXPECT_EQ(r.renderPrometheus(),
              "# HELP ive_test_depth queue depth\n"
              "# TYPE ive_test_depth gauge\n"
              "ive_test_depth -2\n"
              "# HELP ive_test_lat_ns latency\n"
              "# TYPE ive_test_lat_ns histogram\n"
              "ive_test_lat_ns_bucket{le=\"1\"} 1\n"
              "ive_test_lat_ns_bucket{le=\"5\"} 3\n"
              "ive_test_lat_ns_bucket{le=\"101\"} 4\n"
              "ive_test_lat_ns_bucket{le=\"+Inf\"} 4\n"
              "ive_test_lat_ns_sum 111\n"
              "ive_test_lat_ns_count 4\n"
              "# HELP ive_test_ops_total ops by kind\n"
              "# TYPE ive_test_ops_total counter\n"
              "ive_test_ops_total{op=\"a\"} 3\n"
              "ive_test_ops_total{op=\"b\"} 5\n");
}

TEST(ObsRegistry, ReaderFirstLookupKeepsTheRecordersHelp)
{
    // Tests read serving tallies from the registry, sometimes before
    // the recording layer registers the name with its help text.
    obs::Registry r;
    obs::Counter &reader = r.counter("ive_test_late_total");
    r.counter("ive_test_late_total", "recorded later").add(2);
    EXPECT_EQ(reader.value(), 2u);
    EXPECT_EQ(r.renderPrometheus(),
              "# HELP ive_test_late_total recorded later\n"
              "# TYPE ive_test_late_total counter\n"
              "ive_test_late_total 2\n");
}

TEST(ObsRegistry, JsonRenderGolden)
{
    obs::Registry r;
    r.counter("ive_test_ops_total{op=\"a\"}").add(3);
    r.gauge("ive_test_depth").set(-2);
    obs::Histogram &h = r.histogram("ive_test_lat_ns");
    for (u64 v : {u64{1}, u64{5}, u64{5}, u64{100}})
        h.record(v);

    EXPECT_EQ(r.renderJson(),
              "{\n"
              "  \"counters\": "
              "{\"ive_test_ops_total{op=\\\"a\\\"}\": 3},\n"
              "  \"gauges\": {\"ive_test_depth\": -2},\n"
              "  \"histograms\": {\"ive_test_lat_ns\": "
              "{\"count\": 4, \"sum\": 111, \"p50\": 5, \"p95\": 101, "
              "\"p99\": 101}}\n"
              "}\n");
}

TEST(ObsRegistry, GlobalRegistryExposesCanonicalStageNames)
{
    // The serving layers register through these exact names; asking
    // for them here must agree on the kind (logic_error otherwise).
    obs::Registry &r = obs::Registry::global();
    (void)r.histogram(obs::names::kStageExpand);
    (void)r.histogram(obs::names::kStageAnswer);
    (void)r.counter(obs::names::kOpsSubs);
    (void)r.gauge(obs::names::kPoolThreads);
    std::string text = r.renderPrometheus();
    EXPECT_NE(text.find("ive_stage_latency_ns_bucket"),
              std::string::npos);
    EXPECT_NE(text.find("stage=\"expand\""), std::string::npos);
}

namespace {

/** Fresh per-test trace directory under the system tmpdir. */
std::string
makeTraceDir(const char *tag)
{
    std::string tmpl = ::testing::TempDir() + "ive_obs_" + tag +
                       "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *dir = mkdtemp(buf.data());
    EXPECT_NE(dir, nullptr);
    return dir != nullptr ? dir : "";
}

/** The single trace_*.json in dir, as a string (scans, so tests need
 *  not assume a global file sequence number). */
std::string
readSoleTrace(const std::string &dir)
{
    std::vector<std::filesystem::path> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        files.push_back(e.path());
    EXPECT_EQ(files.size(), 1u) << "expected exactly one trace file";
    if (files.size() != 1)
        return "";
    EXPECT_NE(files[0].filename().string().find("trace_"),
              std::string::npos);
    std::ifstream in(files[0]);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

} // namespace

TEST(ObsTrace, DisabledByDefaultAndSpansStillRecord)
{
    obs::Tracer::global().configure("");
    EXPECT_FALSE(obs::Tracer::global().enabled());
    obs::Histogram h;
    {
        obs::Tracer::QueryTrace q("noop");
        EXPECT_FALSE(q.capturing());
        obs::StageSpan span(&h, "stage");
    }
    EXPECT_EQ(h.snapshot().count, 1u); // Histogram path is always on.
}

TEST(ObsTrace, NestedSpansMergeIntoOneSortedTrace)
{
    std::string dir = makeTraceDir("nested");
    obs::Tracer::global().configure(dir);
    {
        obs::Tracer::QueryTrace q("nested");
        ASSERT_TRUE(q.capturing());
        obs::StageSpan outer(nullptr, "outer");
        {
            obs::StageSpan inner(nullptr, "inner");
        }
    }
    obs::Tracer::global().configure("");

    std::string json = readSoleTrace(dir);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    size_t inner_pos = json.find("\"name\": \"inner\"");
    size_t outer_pos = json.find("\"name\": \"outer\"");
    ASSERT_NE(inner_pos, std::string::npos);
    ASSERT_NE(outer_pos, std::string::npos);
    // Spans close inner-first but the export sorts by start time with
    // longer (enclosing) spans first on ties, so outer leads.
    EXPECT_LT(outer_pos, inner_pos);
    std::filesystem::remove_all(dir);
}

TEST(ObsTrace, EventsFromWorkerThreadsLandInTheOwnersTrace)
{
    std::string dir = makeTraceDir("threads");
    obs::Tracer::global().configure(dir);
    {
        obs::Tracer::QueryTrace q("mt");
        ASSERT_TRUE(q.capturing());
        std::vector<std::thread> threads;
        for (int t = 0; t < 3; ++t) {
            threads.emplace_back(
                [] { obs::StageSpan span(nullptr, "worker"); });
        }
        for (auto &th : threads)
            th.join();
    }
    obs::Tracer::global().configure("");

    std::string json = readSoleTrace(dir);
    EXPECT_EQ(countOccurrences(json, "\"name\": \"worker\""), 3u);
    std::filesystem::remove_all(dir);
}

TEST(ObsTrace, EnvVarSmoke)
{
    std::string dir = makeTraceDir("env");
    ASSERT_EQ(setenv("IVE_TRACE_DIR", dir.c_str(), 1), 0);
    obs::Tracer::global().reloadEnv();
    EXPECT_TRUE(obs::Tracer::global().enabled());
    {
        obs::Tracer::QueryTrace q("env");
        ASSERT_TRUE(q.capturing());
        obs::StageSpan span(nullptr, "env_stage");
    }
    ASSERT_EQ(unsetenv("IVE_TRACE_DIR"), 0);
    obs::Tracer::global().reloadEnv();
    EXPECT_FALSE(obs::Tracer::global().enabled());

    std::string json = readSoleTrace(dir);
    EXPECT_NE(json.find("\"name\": \"env_stage\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"pir\""), std::string::npos);
    std::filesystem::remove_all(dir);
}
