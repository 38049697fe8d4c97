/**
 * @file
 * Self-tests for the benchmark's own statistics (stats.hh): percentile
 * selection and the ten-beyond rule, failed/attempted accounting
 * including the re-register-and-retry path, span self time, and the
 * result-line schema. Run with `python3 perfbench/run.py --self-test`;
 * exits non-zero on the first failed check.
 */

#include <cstdio>
#include <limits>

#include "stats.hh"

namespace pb = perfbench;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

std::vector<double>
iota(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // Unsorted on purpose.
        v.push_back(i);
    return v;
}

void
percentiles()
{
    check(pb::nearestRank(100, 0.50) == 50, "rank of p50 over 100");
    check(pb::nearestRank(100, 0.90) == 90, "rank of p90 over 100");
    check(pb::nearestRank(101, 0.90) == 91, "rank rounds up");
    check(pb::nearestRank(5, 0.0) == 1, "rank clamps to 1");
    check(pb::percentile(iota(100), 0.50) == 50, "p50 of 1..100");
    check(pb::percentile(iota(100), 0.90) == 90, "p90 of 1..100");
    check(pb::percentile(iota(10), 0.90) == 9, "p90 of 1..10");
    check(pb::percentile({7}, 0.90) == 7, "single sample");
    check(std::isnan(pb::percentile({}, 0.5)), "empty set is NaN");
    check(pb::median({3, 1, 2}) == 2, "odd median");
    check(pb::median({4, 1, 3, 2}) == 2.5, "even median");

    // Ten samples must lie beyond the reported percentile.
    check(pb::samplesBeyond(100, 0.90) == 10, "100 samples: 10 beyond");
    check(pb::supportsPercentile(100, 0.90), "p90 supported at 100");
    check(!pb::supportsPercentile(99, 0.90), "p90 unsupported at 99");
    check(pb::minSamplesFor(0.90) == 100, "p90 needs 100 samples");
    check(pb::minSamplesFor(0.50) == 20, "p50 needs 20 samples");
    check(pb::minSamplesFor(0.99) == 1000, "p99 needs 1000 samples");

    // A failed request is +inf: it lands beyond every finite sample.
    std::vector<double> v = iota(99);
    v.push_back(std::numeric_limits<double>::infinity());
    check(pb::percentile(v, 0.90) == 90, "one failure stays in the tail");
    check(std::isinf(pb::percentile(v, 1.0)), "failure is the maximum");
}

void
accounting()
{
    pb::Tally t;
    t.record(pb::Outcome::Ok);
    t.record(pb::Outcome::RecoveredOk);
    t.record(pb::Outcome::RecoveredFailed);
    t.record(pb::Outcome::Error);
    check(t.attempted == 4, "each query is attempted once");
    check(t.failed == 2, "failed retry and error both fail");
    check(t.refused == 2, "both refusals counted");
    check(t.queryRefsSent == 6, "a retry sends a second QueryRef");
    check(t.answeredCorrectly() == 2, "two answered");
    t.markMismatch();
    check(t.failed == 3 && t.mismatches == 1, "mismatch fails the query");
    check(t.errorRate() == 0.75, "error rate is failed / attempted");

    pb::Tally sum;
    sum += t;
    sum += t;
    check(sum.attempted == 8 && sum.failed == 6 && sum.queryRefsSent == 12,
          "tallies add field by field");
    check(pb::Tally{}.errorRate() == 0.0, "empty tally has no errors");
}

void
spans()
{
    pb::SpanLog sl;
    int root = sl.begin("root", 0, -1, 7);
    int a = sl.begin("a", 10, root, 7);
    sl.end(a, 30);
    int b = sl.begin("b", 20, root, 7); // Overlaps a: counted once.
    sl.end(b, 40);
    int c = sl.begin("c", 50, root, 7);
    sl.end(c, 60);
    int g = sl.begin("grandchild", 52, c, 7); // Not root's child.
    sl.end(g, 58);
    int late = sl.begin("late", 90, root, 7); // Clipped at root's end.
    sl.end(late, 130);
    sl.end(root, 100);
    check(sl.durationNs(root) == 100, "root duration");
    check(sl.selfNs(root) == 100 - 30 - 10 - 10, "root self time");
    check(sl.selfNs(c) == 4, "child self time excludes grandchild");
    check(sl.selfNs(g) == 6, "leaf self time is its duration");
    check(sl.selfMs("a").size() == 1 && sl.selfMs("a")[0] == 20e-6,
          "self times by name, in ms");
    check(sl.spans()[b].requestId == 7, "request id kept");
}

void
schema()
{
    std::string line = pb::resultLine(
        true, 12, 1, {{"qps", "1/s", 7.25}, {"setup_s", "s", 0.1}});
    check(line == "{\"correct\": true, \"attempted\": 12, \"failed\": 1, "
                  "\"metrics\": {\"qps\": {\"value\": 7.25, \"unit\": "
                  "\"1/s\"}, \"setup_s\": {\"value\": "
                  "0.10000000000000001, \"unit\": \"s\"}}}",
          "result line keys, order and full-precision values");
    check(line.find('\n') == std::string::npos, "one line");
    check(pb::fmtNumber(1.0 / 3.0) == "0.33333333333333331",
          "all digits kept");
    check(!pb::allFinite({{"x", "ms",
                           std::numeric_limits<double>::quiet_NaN()}}),
          "NaN is not a reportable value");
    check(pb::resultLine(false, 1, 1, {}).rfind("{\"correct\": false", 0) ==
              0,
          "incorrect runs say so");
}

} // namespace

int
main()
{
    percentiles();
    accounting();
    spans();
    schema();
    if (failures) {
        std::fprintf(stderr, "%d self-test check(s) failed\n", failures);
        return 1;
    }
    std::printf("ledger self-tests passed\n");
    return 0;
}
