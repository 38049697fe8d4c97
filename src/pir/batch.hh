/**
 * @file
 * CPU phase timing of the query pipeline.
 *
 * The timing helpers measure per-phase CPU cost on a resident-size
 * database and extrapolate the linear-in-D phases (RowSel, ColTor) to
 * the paper's multi-GB targets (see EXPERIMENTS.md for the
 * methodology). A batch of queries (paper SIII-B) needs no helper of
 * its own: queries are independent, so a caller runs parallelFor over
 * PirServer::processAllPlanes or ServerSession::answer.
 */

#ifndef IVE_PIR_BATCH_HH
#define IVE_PIR_BATCH_HH

#include "pir/server.hh"

namespace ive {

/** Wall-clock seconds per pipeline phase for one query. */
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

/** Times each phase of a single query on the host CPU. */
CpuPhaseTimes measureCpuQuery(const PirServer &server,
                              const PirQuery &query);

/**
 * Extrapolates measured times to a target parameter set: RowSel scales
 * with entry count, ColTor with the number of external products, and
 * Expand/selector costs with the expansion tree size. coreScale models
 * embarrassingly parallel multi-core execution (queries and database
 * rows are independent).
 */
CpuPhaseTimes extrapolateCpu(const CpuPhaseTimes &measured,
                             const PirParams &measured_params,
                             const PirParams &target_params,
                             double core_scale);

} // namespace ive

#endif // IVE_PIR_BATCH_HH
