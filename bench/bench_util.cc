#include "bench_util.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "baselines/counterminer.h"
#include "baselines/linux_scaling.h"
#include "baselines/wmpin.h"
#include "common/logging.h"
#include "common/stats.h"
#include "core/bayesperf.h"
#include "core/derived.h"

namespace bperf {
namespace bench {

using sim::EventId;
using sim::Role;

std::vector<EventId>
evaluationEventSet(const sim::MicroarchDescriptor &uarch)
{
    // 29 programmable events: the metric HPCs plus invariant
    // neighbours, mirroring the 29-counter derived-event example of
    // section 2.
    static const Role roles[] = {
        // Metric events.
        Role::StallTotal, Role::StallMem, Role::StallFrontend,
        Role::StallBranch, Role::BranchMisses, Role::LlcMiss,
        Role::DramBytes, Role::DmaBytes, Role::UopsIssued,
        // Invariant neighbours.
        Role::ActiveCycles, Role::Loads, Role::Stores, Role::Branches,
        Role::OtherOps, Role::BranchTaken, Role::BranchNotTaken,
        Role::L1DAccess, Role::L1DMiss, Role::L1IMiss, Role::L2Access,
        Role::L2Miss, Role::L2Prefetch, Role::LlcAccess,
        Role::DramReads, Role::DramWrites, Role::PcieReadBytes,
        Role::PcieWriteBytes, Role::OffcoreReads, Role::OffcoreWrites};
    std::vector<EventId> out;
    for (Role r : roles)
        out.push_back(uarch.idForRole(r));
    return out;
}

std::vector<EventId>
paddedEventSet(const sim::MicroarchDescriptor &uarch, std::size_t n)
{
    std::vector<EventId> base = evaluationEventSet(uarch);
    // Extend with the remaining programmable events, in catalog order.
    for (EventId e : uarch.programmableEvents())
        if (std::find(base.begin(), base.end(), e) == base.end())
            base.push_back(e);
    bp_assert(n <= base.size(),
              "requested more events than the catalog provides");
    base.resize(n);
    return base;
}

std::vector<EstimatorErrors>
compareEstimators(const sim::MicroarchDescriptor &uarch,
                  const sim::WorkloadProfile &workload,
                  const std::vector<EventId> &monitored,
                  const ComparisonConfig &config)
{
    const sim::GroundTruthGenerator generator(uarch, workload);
    const sim::TruthTrace truth =
        generator.generate(config.numSlices, config.truthSeed);

    // Sampling run (the raw perf result every estimator consumes).
    const std::vector<EventId> measured =
        core::resolveMonitoredSet(uarch, monitored);
    const core::ScheduleResult schedule =
        core::OverlapScheduler(
            uarch, {.reserveOverlapSlot = config.reserveOverlapSlot})
            .build(measured);
    sim::PerfSessionConfig perf_cfg;
    perf_cfg.seed = config.samplingSeed;
    sim::PerfSession perf(uarch, perf_cfg);
    const sim::PerfResult sampled =
        perf.run(truth, measured, schedule.configs);

    // Polled reference run of the same execution.
    sim::PerfSessionConfig poll_cfg;
    poll_cfg.seed = config.pollSeed;
    sim::PerfSession poll(uarch, poll_cfg);
    const sim::PerfResult polled = poll.runPolling(truth, measured);

    const auto &metrics = core::standardDerivedMetrics();
    auto ref_series = [&](EventId e) {
        return polled.traceFor(e).estimateSeries();
    };

    auto score = [&](std::string name, const ana::SeriesFn &est_series) {
        EstimatorErrors errors;
        errors.name = std::move(name);
        errors.derivedErrorPct = ana::derivedErrorPercent(
            uarch, metrics, config.numSlices, est_series, ref_series);
        RunningStats ev;
        for (EventId e : measured)
            ev.push(ana::traceErrorPercent(est_series(e), ref_series(e)));
        errors.eventErrorPct = ev.mean();
        return errors;
    };
    auto score_baseline = [&](const baselines::Estimator &est) {
        return score(est.name(),
                     [&](EventId e) { return est.series(sampled, e); });
    };

    std::vector<EstimatorErrors> out;
    out.push_back(score_baseline(baselines::LinuxEstimator()));
    out.push_back(score_baseline(baselines::CounterMinerEstimator()));
    if (config.includeWmPin)
        out.push_back(score_baseline(baselines::WmPinEstimator(uarch)));
    if (config.includeBayesPerf) {
        const core::InferenceResult posterior = core::infer(uarch, sampled);
        out.push_back(score("BayesPerf", [&](EventId e) {
            return posterior.meanSeries(e);
        }));
    }
    return out;
}

bool
quickMode()
{
    const char *env = std::getenv("BP_QUICK");
    return env && env[0] == '1';
}

std::size_t
defaultSlices()
{
    return quickMode() ? 48 : 96;
}

} // namespace bench
} // namespace bperf
