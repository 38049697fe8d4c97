/**
 * @file
 * What a call under test added to one obs::Registry counter.
 *
 * The dispatcher and the shard coordinator keep their tallies only in
 * the process-wide registry, so tests read the same numbers operators
 * scrape. Each test binary runs one test body at a time, and every
 * test here drives one dispatcher or coordinator, so a counter's
 * growth around a call is that call's tally.
 */

#ifndef IVE_TESTS_COUNTER_DELTA_HH
#define IVE_TESTS_COUNTER_DELTA_HH

#include "obs/metrics.hh"

namespace ive {

/** Growth of one registry counter since construction. */
class CounterDelta
{
  public:
    explicit CounterDelta(const char *name)
        : counter_(obs::Registry::global().counter(name)),
          start_(counter_.value())
    {
    }

    u64 operator()() const { return counter_.value() - start_; }

  private:
    const obs::Counter &counter_;
    u64 start_;
};

} // namespace ive

#endif // IVE_TESTS_COUNTER_DELTA_HH
