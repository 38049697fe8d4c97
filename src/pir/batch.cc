#include "pir/batch.hh"

#include "obs/metrics.hh"

namespace ive {

namespace {

double
now()
{
    return static_cast<double>(obs::nowNs()) / 1e9;
}

} // namespace

CpuPhaseTimes
measureCpuQuery(const PirServer &server, const PirQuery &query)
{
    CpuPhaseTimes t;

    // Expansion and selector assembly run unfused so each phase gets
    // its own timing.
    double t0 = now();
    std::vector<RgswCiphertext> none;
    std::vector<BfvCiphertext> leaves =
        server.expandAndSelect(query, 0, 0, none);
    double t1 = now();
    std::vector<RgswCiphertext> selectors =
        server.buildSelectors(leaves, 0, server.params().d);
    double t2 = now();
    std::vector<BfvCiphertext> entries = server.rowSel(leaves);
    double t3 = now();
    BfvCiphertext resp = server.colTor(std::move(entries), selectors);
    double t4 = now();
    (void)resp;

    t.expandSec = t1 - t0;
    t.selectorSec = t2 - t1;
    t.rowselSec = t3 - t2;
    t.coltorSec = t4 - t3;
    return t;
}

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

} // namespace ive
