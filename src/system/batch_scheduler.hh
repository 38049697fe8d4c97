/**
 * @file
 * Waiting-window batch scheduler under Poisson load (paper SV and
 * SVI-F, Fig. 14b).
 *
 * Queries arrive as a Poisson process. The scheduler opens a waiting
 * window when the first query of a batch arrives and dispatches when
 * the window expires or the batch is full; the window is sized from
 * the RowSel DB-access time, bounding the batching latency overhead to
 * about 2x while preserving the throughput gains. The SchedulerConfig
 * it simulates is the live dispatcher's (shard/dispatcher.hh).
 */

#ifndef IVE_SYSTEM_BATCH_SCHEDULER_HH
#define IVE_SYSTEM_BATCH_SCHEDULER_HH

#include <functional>
#include <vector>

#include "shard/dispatcher.hh"

namespace ive {

/** Service latency for a batch of the given size (from the simulator). */
using ServiceModel = std::function<double(int batch_size)>;

struct LoadPoint
{
    double offeredQps = 0.0;
    double avgLatencySec = 0.0;
    double maxLatencySec = 0.0;
    double completedQps = 0.0;
    double avgBatch = 0.0;
    bool saturated = false; ///< Arrival rate exceeded service rate.
};

/**
 * Discrete-event simulation of the scheduler at one offered load.
 * num_queries arrivals are generated; the run is marked saturated when
 * the backlog grows without bound (latency exceeding 50x the window).
 */
LoadPoint simulateLoad(const ServiceModel &service,
                       const SchedulerConfig &cfg, double offered_qps,
                       int num_queries, u64 seed);

/** Sweeps offered loads; one LoadPoint per entry (Fig. 14b curve). */
std::vector<LoadPoint>
loadCurve(const ServiceModel &service, const SchedulerConfig &cfg,
          const std::vector<double> &offered_qps, int num_queries,
          u64 seed);

} // namespace ive

#endif // IVE_SYSTEM_BATCH_SCHEDULER_HH
