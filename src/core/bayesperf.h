/**
 * @file
 * BayesPerf batch measurement API.
 *
 * measure() runs the whole paper pipeline over one trace: the
 * requested events are resolved to a monitored set, scheduled
 * (overlap-aware by default), measured under multiplexing, and
 * inferred into full posterior distributions — mean plus uncertainty
 * — for every event at every time slice.  The perf_event_open-style
 * live interface (section 5) is the monitoring service in
 * src/service/.
 */

#ifndef BPERF_CORE_BAYESPERF_H
#define BPERF_CORE_BAYESPERF_H

#include <vector>

#include "core/inference.h"
#include "core/scheduler.h"
#include "sim/ground_truth.h"
#include "sim/perf_session.h"

namespace bperf {
namespace core {

/** Top-level configuration of a BayesPerf measurement run. */
struct BayesPerfConfig
{
    sim::PerfSessionConfig perf;
    InferenceConfig inference;
    /** scheduler.reserveOverlapSlot = false falls back to Linux
     * round-robin packing — the scheduling ablation. */
    SchedulerConfig scheduler;
};

/** Everything a measurement run produces (raw.monitored is the
 * resolved monitored set). */
struct BayesPerfRun
{
    sim::PerfResult raw;
    InferenceResult posterior;
    ScheduleResult schedule;

    /** Posterior-mean series (the MLE the paper reports). */
    std::vector<double> estimate(sim::EventId event) const
    {
        return posterior.meanSeries(event);
    }

    /** Posterior-stddev series (the quantified uncertainty). */
    std::vector<double> uncertainty(sim::EventId event) const
    {
        return posterior.stddevSeries(event);
    }
};

/**
 * Resolve a requested event set to the session's monitored list:
 * fixed counters first (always on, perf_event_open semantics), then
 * the requested events deduplicated in order.  Dies if any event
 * cannot be scheduled on this PMU at all.  Shared by measure() and
 * the monitoring service.
 */
std::vector<sim::EventId>
resolveMonitoredSet(const sim::MicroarchDescriptor &uarch,
                    const std::vector<sim::EventId> &events);

/**
 * Measure `truth` with `events` (plus the fixed counters, see
 * resolveMonitoredSet) and infer their posteriors.
 */
BayesPerfRun measure(const sim::MicroarchDescriptor &uarch,
                     const sim::TruthTrace &truth,
                     const std::vector<sim::EventId> &events,
                     const BayesPerfConfig &config = {});

} // namespace core
} // namespace bperf

#endif // BPERF_CORE_BAYESPERF_H
