/**
 * @file
 * bpmon: a command-line monitoring tool on top of the BayesPerf API,
 * in the spirit of `perf stat`.
 *
 * Usage:
 *   bpmon [--arch x86|ppc64] [--workload NAME] [--slices N]
 *         [--seed S] [--round-robin] [--csv]
 *
 * Runs the named workload on the simulated machine, monitors the full
 * evaluation event set, and reports per-event averages: truth, Linux
 * scaling, BayesPerf posterior mean and uncertainty, and each
 * estimator's error against a polled reference.  An unknown flag or
 * --arch, or a non-numeric or zero --slices/--seed, prints usage and
 * exits 1.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "analysis/error_metrics.h"
#include "baselines/linux_scaling.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/bayesperf.h"
#include "example_args.h"
#include "workloads/hibench.h"

using namespace bperf;
using examples::parseCount;

namespace {

void
usage()
{
    std::puts("usage: bpmon [--arch x86|ppc64] [--workload NAME] "
              "[--slices N] [--seed S] [--round-robin] [--csv]");
    std::puts("workloads:");
    for (const auto &name : wl::hibenchNames())
        std::printf("  %s\n", name.c_str());
}

double
avg(const std::vector<double> &xs)
{
    RunningStats s;
    for (double x : xs)
        s.push(x);
    return s.mean();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string arch = "x86";
    std::string workload_name = "KMeans";
    std::size_t slices = 96;
    std::uint64_t seed = 42;
    bool round_robin = false;
    bool csv = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(1);
            }
            return argv[++i];
        };
        // Zero slices leaves nothing to score; zero seeds are rejected
        // with it so every numeric flag follows one rule.
        auto next_count = [&]() -> std::size_t {
            std::size_t v = 0;
            if (!parseCount(next(), &v) || v == 0) {
                usage();
                std::exit(1);
            }
            return v;
        };
        if (arg == "--arch") {
            arch = next();
            if (arch != "x86" && arch != "ppc64") {
                usage();
                return 1;
            }
        } else if (arg == "--workload") {
            workload_name = next();
        } else if (arg == "--slices") {
            slices = next_count();
        } else if (arg == "--seed") {
            seed = next_count();
        } else if (arg == "--round-robin") {
            round_robin = true;
        } else if (arg == "--csv") {
            csv = true;
        } else {
            usage();
            return arg == "--help" ? 0 : 1;
        }
    }

    const sim::MicroarchDescriptor uarch =
        arch == "ppc64" ? sim::makePower9() : sim::makeX86Skylake();
    const sim::WorkloadProfile workload = wl::makeHibench(workload_name);
    const sim::GroundTruthGenerator generator(uarch, workload);
    const sim::TruthTrace truth = generator.generate(slices, seed);

    std::vector<sim::EventId> events;
    for (const auto &def : uarch.events())
        if (!def.fixed)
            events.push_back(def.id);

    core::BayesPerfConfig cfg;
    cfg.perf.seed = seed * 3 + 1;
    cfg.scheduler.reserveOverlapSlot = !round_robin;
    const core::BayesPerfRun run = core::measure(uarch, truth, events, cfg);

    sim::PerfSessionConfig poll_cfg;
    poll_cfg.seed = seed * 7 + 5;
    sim::PerfSession poll(uarch, poll_cfg);
    const sim::PerfResult polled =
        poll.runPolling(truth, run.raw.monitored);
    baselines::LinuxEstimator linux_est;

    if (!csv) {
        std::printf("# bpmon: %s on %s, %zu slices, seed %llu, %s "
                    "schedule (%zu configs, %zu chain breaks)\n",
                    workload_name.c_str(), uarch.name().c_str(), slices,
                    static_cast<unsigned long long>(seed),
                    round_robin ? "round-robin" : "overlap",
                    run.schedule.configs.size(),
                    run.schedule.chainBreaks);
    }

    TablePrinter table({"event", "truth avg", "bayes avg", "+/-",
                        "linux err%", "bayes err%"});
    if (csv)
        std::puts("event,truth_avg,bayes_avg,bayes_sd,linux_err_pct,"
                  "bayes_err_pct");

    for (sim::EventId e : run.raw.monitored) {
        const auto ref = polled.traceFor(e).estimateSeries();
        const auto bayes = run.estimate(e);
        const double err_linux =
            ana::traceErrorPercent(linux_est.series(run.raw, e), ref);
        const double err_bayes = ana::traceErrorPercent(bayes, ref);
        const double t_avg = avg(truth.sliceSeries(e));
        const double b_avg = avg(bayes);
        const double sd_avg = avg(run.uncertainty(e));
        if (csv) {
            std::printf("%s,%.1f,%.1f,%.1f,%.2f,%.2f\n",
                        uarch.event(e).name.c_str(), t_avg, b_avg, sd_avg,
                        err_linux, err_bayes);
        } else {
            table.addRow({uarch.event(e).name, formatDouble(t_avg, 0),
                          formatDouble(b_avg, 0), formatDouble(sd_avg, 0),
                          formatDouble(err_linux, 1),
                          formatDouble(err_bayes, 1)});
        }
    }
    if (!csv)
        table.print(std::cout);
    return 0;
}
