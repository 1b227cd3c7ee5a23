/**
 * @file
 * Quickstart: monitor more events than the PMU has counters, and
 * compare Linux's scaled estimates with BayesPerf posteriors.
 *
 * Walks through the whole public API:
 *   1. pick a microarchitecture,
 *   2. pick a workload and generate a ground-truth run,
 *   3. pick a large event set,
 *   4. measure it (core::measure), then read posterior means and
 *      uncertainties,
 *   5. score both estimators against a polled reference run.
 */

#include <cstdio>
#include <iostream>

#include "analysis/error_metrics.h"
#include "baselines/linux_scaling.h"
#include "common/table.h"
#include "core/bayesperf.h"
#include "sim/ground_truth.h"
#include "workloads/hibench.h"

using namespace bperf;

int
main()
{
    // 1. The x86 Skylake-like PMU: 3 fixed + 4 core + 2 uncore counters.
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();

    // 2. A bursty, phase-changing workload.
    const sim::WorkloadProfile workload = wl::makeHibench("KMeans");
    const sim::GroundTruthGenerator generator(uarch, workload);
    const std::size_t num_slices = 96;
    const sim::TruthTrace truth = generator.generate(num_slices, /*seed=*/42);

    // 3. 18 events: far more than fit at once.
    const std::vector<sim::Role> roles = {
        sim::Role::LlcMiss,      sim::Role::L2Miss,
        sim::Role::L1DMiss,      sim::Role::L1DAccess,
        sim::Role::Loads,        sim::Role::Stores,
        sim::Role::Branches,     sim::Role::BranchMisses,
        sim::Role::StallTotal,   sim::Role::StallMem,
        sim::Role::StallFrontend,sim::Role::StallBranch,
        sim::Role::ActiveCycles, sim::Role::DramBytes,
        sim::Role::DmaBytes,     sim::Role::UopsIssued,
        sim::Role::OffcoreReads, sim::Role::DramReads,
    };
    std::vector<sim::EventId> events;
    for (sim::Role r : roles)
        events.push_back(uarch.idForRole(r));

    // 4. Measure: sampling run + Bayesian inference.
    const core::BayesPerfRun run = core::measure(uarch, truth, events);
    std::printf("schedule: %zu configurations, %zu chain breaks\n",
                run.schedule.configs.size(), run.schedule.chainBreaks);

    const sim::EventId llc = uarch.idForRole(sim::Role::LlcMiss);
    const auto posterior_mean = run.estimate(llc);
    const auto posterior_sd = run.uncertainty(llc);
    std::printf("LLC misses @ slice 10: %.0f +/- %.0f (truth %.0f)\n",
                posterior_mean[10], posterior_sd[10],
                truth.sliceTotal(10, llc));

    // 5. Score against a polled reference run of the same execution.
    sim::PerfSessionConfig poll_cfg;
    poll_cfg.seed = 991;
    sim::PerfSession poll_session(uarch, poll_cfg);
    const sim::PerfResult polled =
        poll_session.runPolling(truth, run.raw.monitored);

    baselines::LinuxEstimator linux_est;
    TablePrinter table({"event", "Linux err %", "BayesPerf err %"});
    for (sim::Role r : {sim::Role::LlcMiss, sim::Role::DramBytes,
                        sim::Role::StallMem, sim::Role::BranchMisses,
                        sim::Role::Loads}) {
        const sim::EventId e = uarch.idForRole(r);
        const auto ref = polled.traceFor(e).estimateSeries();
        const double err_linux =
            ana::traceErrorPercent(linux_est.series(run.raw, e), ref);
        const double err_bp =
            ana::traceErrorPercent(run.estimate(e), ref);
        table.addRow(uarch.event(e).name, {err_linux, err_bp});
    }
    table.print(std::cout);
    return 0;
}
