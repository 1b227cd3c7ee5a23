/**
 * @file
 * Ablation C: how much of BayesPerf's correction comes from the
 * invariant factors.  Sweeps the number of invariants wired into the
 * factor graph (0 = temporal smoothing only) by truncating the
 * architecture's invariant catalog.
 */

#include <iostream>

#include "baselines/linux_scaling.h"
#include "bench_util.h"
#include "common/table.h"
#include "core/bayesperf.h"
#include "workloads/hibench.h"

using namespace bperf;

namespace {

/** Copy the descriptor keeping only the first n invariants. */
sim::MicroarchDescriptor
truncated(const sim::MicroarchDescriptor &full, std::size_t n)
{
    sim::MicroarchDescriptor out(full.name(), full.clockGhz(),
                                 full.cacheLineBytes(),
                                 full.numFixedCounters(),
                                 full.numProgrammableCounters(),
                                 full.numOffcoreMsrs());
    for (const auto &e : full.events())
        out.addEvent(e.role, e.name, e.fixed, e.counterMask,
                     e.needsOffcoreMsr, e.typicalPerSlice);
    std::size_t added = 0;
    for (const auto &inv : full.invariants()) {
        if (added++ >= n)
            break;
        out.addInvariant(inv);
    }
    return out;
}

} // namespace

int
main()
{
    const auto full = sim::makeX86Skylake();
    const auto workload = wl::makeHibench("WordCount");
    const std::size_t total = full.invariants().size();

    std::cout << "# Ablation C: BayesPerf error vs number of invariants "
                 "(WordCount)\n";
    TablePrinter t({"invariants", "BayesPerf err %", "Linux err %"});

    for (std::size_t n : {std::size_t{0}, std::size_t{3}, std::size_t{6},
                          std::size_t{9}, std::size_t{12}, total}) {
        const sim::MicroarchDescriptor uarch = truncated(full, n);
        const sim::GroundTruthGenerator generator(uarch, workload);
        const auto truth = generator.generate(bench::defaultSlices(), 44);

        const auto run =
            core::measure(uarch, truth, bench::evaluationEventSet(uarch));

        sim::PerfSessionConfig poll_cfg;
        poll_cfg.seed = 7;
        sim::PerfSession poll(uarch, poll_cfg);
        const auto polled = poll.runPolling(truth, run.raw.monitored);
        auto ref = [&](sim::EventId e) {
            return polled.traceFor(e).estimateSeries();
        };
        auto est = [&](sim::EventId e) { return run.estimate(e); };

        // The full catalog is needed to *evaluate* derived metrics,
        // but inference only used the truncated one.
        const double err_bp = ana::derivedErrorPercent(
            uarch, core::standardDerivedMetrics(), truth.numSlices(), est,
            ref);
        baselines::LinuxEstimator linux_est;
        auto lin = [&](sim::EventId e) {
            return linux_est.series(run.raw, e);
        };
        const double err_linux = ana::derivedErrorPercent(
            uarch, core::standardDerivedMetrics(), truth.numSlices(), lin,
            ref);

        t.addRow({std::to_string(n), formatDouble(err_bp, 1),
                  formatDouble(err_linux, 1)});
    }
    t.print(std::cout);
    return 0;
}
