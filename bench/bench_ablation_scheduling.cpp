/**
 * @file
 * Ablation A: overlap-aware scheduling vs plain round-robin packing.
 *
 * The overlap schedule reserves a counter slot to repeat one event
 * across consecutive configurations (the paper's Fig. 2 design),
 * which lengthens the rotation but chains statistical relationships
 * across slices.  This bench quantifies what that buys BayesPerf.
 */

#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/bayesperf.h"
#include "workloads/hibench.h"

using namespace bperf;

int
main()
{
    const auto uarch = sim::makeX86Skylake();
    const auto monitored = bench::evaluationEventSet(uarch);

    std::cout << "# Ablation A: overlap-aware schedule vs round-robin "
                 "(BayesPerf error, KMeans + TeraSort)\n";
    TablePrinter t({"workload", "schedule", "configs", "BayesPerf err %",
                    "Linux err %"});

    std::uint64_t seed = 61000;
    for (const char *name : {"KMeans", "TeraSort", "PageRank"}) {
        const auto workload = wl::makeHibench(name);
        for (bool overlap : {true, false}) {
            bench::ComparisonConfig cfg;
            cfg.numSlices = bench::defaultSlices();
            cfg.truthSeed = ++seed;
            cfg.samplingSeed = seed * 13;
            cfg.pollSeed = seed * 57;
            cfg.reserveOverlapSlot = overlap;
            const auto errs =
                bench::compareEstimators(uarch, workload, monitored, cfg);

            const auto schedule =
                core::OverlapScheduler(uarch, {.reserveOverlapSlot = overlap})
                    .build(core::resolveMonitoredSet(uarch, monitored));

            t.addRow({name, overlap ? "overlap" : "round-robin",
                      std::to_string(schedule.configs.size()),
                      formatDouble(errs[2].derivedErrorPct, 1),
                      formatDouble(errs[0].derivedErrorPct, 1)});
        }
    }
    t.print(std::cout);
    return 0;
}
