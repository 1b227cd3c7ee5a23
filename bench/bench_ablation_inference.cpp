/**
 * @file
 * Ablation B: inference accuracy and cost vs EP sweeps, moment
 * method (quadrature vs MCMC), and MCMC samples per site; plus the
 * accelerator-projected latency for each setting.
 */

#include <iostream>

#include "accel/accelerator.h"
#include "bench_util.h"
#include "common/table.h"
#include "core/bayesperf.h"
#include "workloads/hibench.h"

using namespace bperf;

namespace {

double
errorWith(const sim::MicroarchDescriptor &uarch,
          const core::InferenceConfig &inference, double *seconds)
{
    const auto workload = wl::makeHibench("Sort");
    const sim::GroundTruthGenerator generator(uarch, workload);
    const auto truth = generator.generate(bench::defaultSlices(), 991);

    core::BayesPerfConfig cfg;
    cfg.inference = inference;
    cfg.perf.seed = 33;
    const auto run =
        core::measure(uarch, truth, bench::evaluationEventSet(uarch), cfg);
    *seconds = run.posterior.wallSeconds;

    sim::PerfSessionConfig poll_cfg;
    poll_cfg.seed = 7;
    sim::PerfSession poll(uarch, poll_cfg);
    const auto polled = poll.runPolling(truth, run.raw.monitored);
    auto ref = [&](sim::EventId e) {
        return polled.traceFor(e).estimateSeries();
    };
    auto est = [&](sim::EventId e) { return run.estimate(e); };
    return ana::derivedErrorPercent(uarch, core::standardDerivedMetrics(),
                                    truth.numSlices(), est, ref);
}

} // namespace

int
main()
{
    const auto uarch = sim::makeX86Skylake();
    accel::Accelerator accelerator;

    std::cout << "# Ablation B: EP sweeps / moment method vs accuracy "
                 "and cost (Sort workload)\n";
    TablePrinter t({"method", "sweeps", "samples", "err %", "CPU s",
                    "accel window us"});

    struct Case
    {
        core::MomentMethod method;
        std::size_t sweeps;
        std::size_t samples;
    };
    const Case cases[] = {
        {core::MomentMethod::Quadrature, 1, 0},
        {core::MomentMethod::Quadrature, 2, 0},
        {core::MomentMethod::Quadrature, 4, 0},
        {core::MomentMethod::Quadrature, 8, 0},
        {core::MomentMethod::Mcmc, 4, 100},
        {core::MomentMethod::Mcmc, 4, 400},
        {core::MomentMethod::Mcmc, 4, 1000},
    };

    for (const auto &c : cases) {
        core::InferenceConfig inference;
        inference.ep.method = c.method;
        inference.ep.maxSweeps = c.sweeps;
        if (c.samples)
            inference.ep.mcmcSamples = c.samples;
        double seconds = 0.0;
        const double err = errorWith(uarch, inference, &seconds);

        accel::InferenceJob job;
        job.numVariables = 8 * 32;
        job.numSites = 8 * 9;
        job.numSweeps = c.sweeps;
        job.samplesPerSite = c.samples ? c.samples : 129;
        const auto timing = accelerator.simulate(job);

        t.addRow({c.method == core::MomentMethod::Quadrature ? "quadrature"
                                                             : "mcmc",
                  std::to_string(c.sweeps), std::to_string(c.samples),
                  formatDouble(err, 1), formatDouble(seconds, 2),
                  formatDouble(timing.totalSeconds * 1e6, 1)});
    }
    t.print(std::cout);
    return 0;
}
