/**
 * @file
 * Example: top-down microarchitecture analysis under heavy counter
 * multiplexing.
 *
 * Derived metrics like Backend_Bound combine many HPCs (the paper's
 * section 2 example needs 29 distinct counters); multiplexing makes
 * their naive values unreliable.  This example monitors the full
 * evaluation event set on a memory-bound SQL workload and prints the
 * top-down breakdown three ways: ground truth, Linux scaling, and
 * BayesPerf posteriors with uncertainty.
 */

#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/stats.h"
#include "common/table.h"
#include "core/bayesperf.h"
#include "core/derived.h"
#include "workloads/hibench.h"

using namespace bperf;

int
main()
{
    const auto uarch = sim::makeX86Skylake();
    const auto workload = wl::makeHibench("Join");
    const sim::GroundTruthGenerator generator(uarch, workload);
    const std::size_t slices = 96;
    const auto truth = generator.generate(slices, 7);

    // Monitor every event the ten derived metrics and their
    // invariants need.
    std::vector<sim::EventId> events;
    for (const auto &def : uarch.events())
        if (!def.fixed)
            events.push_back(def.id);

    const core::BayesPerfRun run = core::measure(uarch, truth, events);
    std::printf("multiplexing %zu events over %zu counters "
                "(%zu configurations)\n\n",
                events.size(), uarch.numProgrammableCounters(),
                run.schedule.configs.size());

    TablePrinter table({"metric", "truth", "Linux", "BayesPerf",
                        "posterior +/-"});
    for (const auto &metric : core::standardDerivedMetrics()) {
        auto value_from = [&](auto series_fn) {
            RunningStats s;
            const auto v = core::derivedSeries(metric, uarch, slices,
                                               series_fn);
            for (double x : v)
                s.push(x);
            return s.mean();
        };
        const double v_truth =
            value_from([&](sim::EventId e) { return truth.sliceSeries(e); });
        const double v_linux = value_from([&](sim::EventId e) {
            return run.raw.traceFor(e).estimateSeries();
        });
        const double v_bp =
            value_from([&](sim::EventId e) { return run.estimate(e); });

        // First-order uncertainty of the metric from the posterior.
        RunningStats sd;
        for (std::size_t t = 0; t < slices; ++t) {
            double rel2 = 0.0;
            for (const auto &[role, c] : metric.numerator) {
                const sim::EventId e = uarch.idForRole(role);
                const auto m = run.estimate(e);
                const auto s = run.uncertainty(e);
                if (m[t] != 0.0)
                    rel2 += (s[t] / m[t]) * (s[t] / m[t]);
            }
            sd.push(std::sqrt(rel2));
        }

        table.addRow({metric.name, formatDouble(v_truth, 4),
                      formatDouble(v_linux, 4), formatDouble(v_bp, 4),
                      formatDouble(100.0 * sd.mean(), 1) + "%"});
    }
    table.print(std::cout);
    return 0;
}
