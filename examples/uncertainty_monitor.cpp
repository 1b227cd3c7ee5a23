/**
 * @file
 * Example: using the quantified uncertainty.
 *
 * BayesPerf returns full posteriors, not point estimates.  This
 * example monitors DRAM bandwidth on a phase-changing workload and
 * shows how a monitoring agent can (a) report calibrated error bars,
 * and (b) trigger alarms only when the posterior puts high
 * probability on a threshold crossing, avoiding the false alarms a
 * noisy point estimate would cause.
 */

#include <cstdio>

#include "common/stats.h"
#include "core/bayesperf.h"
#include "core/derived.h"
#include "workloads/hibench.h"

using namespace bperf;

int
main()
{
    const auto uarch = sim::makeX86Skylake();
    const auto workload = wl::makeHibench("DFSIOE");
    const sim::GroundTruthGenerator generator(uarch, workload);
    const std::size_t slices = 96;
    const auto truth = generator.generate(slices, 11);

    const auto run = core::measure(
        uarch, truth,
        {uarch.idForRole(sim::Role::DramBytes),
         uarch.idForRole(sim::Role::DmaBytes),
         uarch.idForRole(sim::Role::LlcMiss),
         uarch.idForRole(sim::Role::StallMem),
         uarch.idForRole(sim::Role::L2Miss),
         uarch.idForRole(sim::Role::DramReads),
         uarch.idForRole(sim::Role::DramWrites),
         uarch.idForRole(sim::Role::OffcoreReads),
         uarch.idForRole(sim::Role::OffcoreWrites),
         uarch.idForRole(sim::Role::PcieReadBytes),
         uarch.idForRole(sim::Role::PcieWriteBytes)});

    const sim::EventId dram = uarch.idForRole(sim::Role::DramBytes);
    const auto mean = run.estimate(dram);
    const auto sd = run.uncertainty(dram);
    const auto truth_series = truth.sliceSeries(dram);
    const auto linux_series = run.raw.traceFor(dram).estimateSeries();

    // Coverage: how often truth falls inside the 95% interval.
    std::size_t covered = 0;
    for (std::size_t t = 0; t < slices; ++t)
        if (std::abs(truth_series[t] - mean[t]) <= 1.96 * sd[t])
            ++covered;
    std::printf("95%% posterior interval covers truth in %zu/%zu slices\n",
                covered, slices);

    // Alarm when DRAM traffic exceeds a threshold with P > 0.9.
    const double threshold = 1.4 * bperf::mean(truth_series);
    std::size_t alarms_bp = 0, alarms_naive = 0;
    std::size_t true_alarms = 0;
    for (std::size_t t = 0; t < slices; ++t) {
        const double p_exceed =
            1.0 - normalCdf(threshold, mean[t], std::max(sd[t], 1.0));
        if (p_exceed > 0.9)
            ++alarms_bp;
        if (linux_series[t] > threshold)
            ++alarms_naive;
        if (truth_series[t] > threshold)
            ++true_alarms;
    }
    
    std::printf("slices truly above 1.4x mean DRAM traffic: %zu\n",
                true_alarms);
    std::printf("alarms raised  - naive Linux point estimate: %zu\n",
                alarms_naive);
    std::printf("alarms raised  - BayesPerf P(exceed) > 0.9:  %zu\n",
                alarms_bp);
    return 0;
}
