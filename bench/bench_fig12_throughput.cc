/**
 * @file
 * Reproduces Fig. 12: PIR throughput (QPS), speedup and energy of
 * CPU (32 cores), RTX 4090 / H100 (single + batched) and IVE for
 * 2 / 4 / 8 GB synthesized databases.
 *
 * The CPU row is *measured*: the functional OnionPIR-style pipeline
 * runs one query on this host over a resident-size database, each
 * stage timed by the ive_stage_latency_ns histogram it records into.
 * Each stage is then scaled to the target by the work it grows with:
 * RowSel by entries x planes, ColTor by folds (2^d - 1) x planes,
 * expansion by the expansion tree size 2^depth, and selector assembly
 * by d x ell. The sum is divided by 32 for a 32-core CPU, since
 * queries and database rows are independent. GPU rows use the
 * roofline model; IVE rows use the cycle-level simulator.
 */

#include <cstdio>
#include <vector>

#include "common/units.hh"
#include "model/roofline.hh"
#include "obs/metrics.hh"
#include "pir/server.hh"
#include "sim/accelerator.hh"

using namespace ive;

namespace {

/** Wall-clock seconds per pipeline stage for one query. */
struct CpuPhaseTimes
{
    double expandSec = 0.0;
    double selectorSec = 0.0;
    double rowselSec = 0.0;
    double coltorSec = 0.0;

    double
    totalSec() const
    {
        return expandSec + selectorSec + rowselSec + coltorSec;
    }
};

/**
 * Seconds fn() adds to the sum of a stage's latency histogram: one
 * call's time as the stage itself records it.
 */
template <typename Fn>
double
stageSec(const char *stage, Fn &&fn)
{
    obs::Histogram &h = obs::Registry::global().histogram(stage);
    const u64 before = h.snapshot().sum;
    fn();
    return static_cast<double>(h.snapshot().sum - before) / 1e9;
}

/**
 * Scales measured stage times to a target parameter set by the work
 * each stage grows with (see the file comment) and divides by
 * core_scale cores.
 */
CpuPhaseTimes
extrapolateCpu(const CpuPhaseTimes &measured,
               const PirParams &measured_params,
               const PirParams &target_params, double core_scale)
{
    auto ratio = [](double target, double base) {
        return base > 0 ? target / base : 0.0;
    };

    double entries_r =
        ratio(static_cast<double>(target_params.numEntries()) *
                  target_params.planes,
              static_cast<double>(measured_params.numEntries()) *
                  measured_params.planes);
    double folds_r =
        ratio(static_cast<double>((u64{1} << target_params.d) - 1) *
                  target_params.planes,
              static_cast<double>((u64{1} << measured_params.d) - 1) *
                  measured_params.planes);
    double expand_r =
        ratio(static_cast<double>(u64{1} << target_params.expansionDepth()),
              static_cast<double>(u64{1}
                                  << measured_params.expansionDepth()));
    double sel_r = ratio(static_cast<double>(target_params.d) *
                             target_params.he.ellRgsw,
                         static_cast<double>(measured_params.d) *
                             measured_params.he.ellRgsw);

    CpuPhaseTimes out;
    out.expandSec = measured.expandSec * expand_r / core_scale;
    out.selectorSec = measured.selectorSec * sel_r / core_scale;
    out.rowselSec = measured.rowselSec * entries_r / core_scale;
    out.coltorSec = measured.coltorSec * folds_r / core_scale;
    return out;
}

} // namespace

int
main()
{
    // --- measure the CPU once on a small database ---
    PirParams meas = PirParams::functionalDefault();
    meas.d = 1; // 512 entries = 8 MiB raw, full ring (n = 4096)
    HeContext ctx(meas.he);
    PirClient client(ctx, meas, 1);
    Database db = Database::random(ctx, meas, 2);
    PirServer server(ctx, meas, &db, client.genPublicKeys());
    PirQuery q = client.makeQuery(3);

    // Expansion and selector assembly run unfused, so each stage's
    // histogram times it alone.
    namespace names = obs::names;
    CpuPhaseTimes cpu_small;
    std::vector<RgswCiphertext> none, selectors;
    std::vector<BfvCiphertext> leaves, entries;
    cpu_small.expandSec = stageSec(names::kStageExpand, [&] {
        leaves = server.expandAndSelect(q, 0, 0, none);
    });
    cpu_small.selectorSec = stageSec(names::kStageSelectors, [&] {
        selectors = server.buildSelectors(leaves, 0, meas.d);
    });
    cpu_small.rowselSec = stageSec(names::kStageRowsel,
                                   [&] { entries = server.rowSel(leaves); });
    cpu_small.coltorSec = stageSec(names::kStageFold, [&] {
        (void)server.colTor(std::move(entries), selectors);
    });
    std::printf("CPU measurement (n=4096, %llu entries): expand %.2fs "
                "sel %.2fs rowsel %.3fs coltor %.3fs\n\n",
                (unsigned long long)meas.numEntries(),
                cpu_small.expandSec, cpu_small.selectorSec,
                cpu_small.rowselSec, cpu_small.coltorSec);

    IveSimulator ive;
    std::printf("=== Fig. 12: QPS / speedup over CPU / energy per "
                "query ===\n");
    std::printf("%-5s %-12s %10s %10s %12s\n", "DB", "system", "QPS",
                "speedup", "J/query");
    for (u64 gb : {2, 4, 8}) {
        PirParams target = PirParams::paperPerf(gb * GiB);

        // CPU(32): extrapolated measurement.
        PirParams target_func = PirParams::forDbSize(gb * GiB);
        CpuPhaseTimes cpu =
            extrapolateCpu(cpu_small, meas, target_func, 32.0);
        double cpu_qps = 1.0 / cpu.totalSec();
        // Host-measured joules would need RAPL; report a TDP-based
        // estimate (250 W package at measured runtime).
        double cpu_energy = cpu.totalSec() * 250.0;
        std::printf("%3lluGB %-12s %10.2f %10s %12.1f\n",
                    (unsigned long long)gb, "CPU (32)", cpu_qps, "1.0x",
                    cpu_energy);

        for (const GpuSpec &gpu :
             {GpuSpec::rtx4090(), GpuSpec::h100()}) {
            auto single = gpuEstimate(target, gpu, 1);
            if (single.feasible) {
                std::printf("%3lluGB %-12s %10.2f %9.1fx %12.2f\n",
                            (unsigned long long)gb,
                            (gpu.name + " (S)").c_str(), single.qps,
                            single.qps / cpu_qps,
                            single.energyPerQueryJ);
            } else {
                std::printf("%3lluGB %-12s %10s\n",
                            (unsigned long long)gb,
                            (gpu.name + " (S)").c_str(),
                            "does not fit");
            }
            auto batched = gpuEstimate(target, gpu, 0);
            if (batched.feasible) {
                std::printf("%3lluGB %-12s %10.2f %9.1fx %12.2f  "
                            "(batch %d)\n",
                            (unsigned long long)gb,
                            (gpu.name + " (B)").c_str(), batched.qps,
                            batched.qps / cpu_qps,
                            batched.energyPerQueryJ, batched.batch);
            }
        }

        auto r = ive.runDbSize(gb * GiB, 64);
        std::printf("%3lluGB %-12s %10.1f %9.1fx %12.4f\n",
                    (unsigned long long)gb, "IVE", r.qps,
                    r.qps / cpu_qps, r.energyPerQueryJ);
    }
    std::printf("\n(paper: IVE 4261 / 2350 / 1242 QPS; 687.6x gmean "
                "over 32-core CPU;\n up to 18.7x over the best batched "
                "GPU; 0.03 / 0.05 / 0.09 J/query)\n");
    return 0;
}
