/**
 * @file
 * End-to-end integration sweep: the full pipeline (workload ->
 * ground truth -> overlap schedule -> sampling -> EP inference ->
 * error metric) across architectures and workload classes, asserting
 * the paper's qualitative results hold everywhere.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "analysis/error_metrics.h"
#include "baselines/counterminer.h"
#include "baselines/linux_scaling.h"
#include "core/bayesperf.h"
#include "core/derived.h"
#include "workloads/hibench.h"

namespace bperf {
namespace {

struct Case
{
    const char *arch;
    const char *workload;
};

class PipelineTest : public ::testing::TestWithParam<Case>
{
  protected:
    sim::MicroarchDescriptor
    uarch() const
    {
        return std::string(GetParam().arch) == "x86"
                   ? sim::makeX86Skylake()
                   : sim::makePower9();
    }
};

TEST_P(PipelineTest, BayesPerfBeatsLinuxOnDerivedMetrics)
{
    const auto u = uarch();
    const auto workload = wl::makeHibench(GetParam().workload);
    const sim::GroundTruthGenerator gen(u, workload);
    const auto truth = gen.generate(48, 4242);

    // Monitor the events behind the standard derived metrics plus
    // their invariant neighbours.
    std::vector<sim::EventId> events;
    for (const auto &def : u.events())
        if (!def.fixed)
            events.push_back(def.id);

    core::BayesPerfConfig cfg;
    cfg.perf.seed = 11;
    const auto run = core::measure(u, truth, events, cfg);

    // Schedule sanity.
    sim::Pmu pmu(u);
    for (const auto &config : run.schedule.configs)
        ASSERT_TRUE(pmu.validate(config));

    sim::PerfSessionConfig poll_cfg;
    poll_cfg.seed = 17;
    sim::PerfSession poll(u, poll_cfg);
    const auto polled = poll.runPolling(truth, run.raw.monitored);
    auto ref = [&](sim::EventId e) {
        return polled.traceFor(e).estimateSeries();
    };

    baselines::LinuxEstimator linux_est;
    auto lin = [&](sim::EventId e) { return linux_est.series(run.raw, e); };
    auto bp = [&](sim::EventId e) { return run.estimate(e); };

    const auto &metrics = core::standardDerivedMetrics();
    const double err_linux =
        ana::derivedErrorPercent(u, metrics, 48, lin, ref);
    const double err_bp =
        ana::derivedErrorPercent(u, metrics, 48, bp, ref);

    EXPECT_LT(err_bp, err_linux)
        << GetParam().arch << "/" << GetParam().workload;
    // And the improvement should be substantial, not marginal.
    EXPECT_LT(err_bp, 0.85 * err_linux)
        << GetParam().arch << "/" << GetParam().workload;
}

TEST_P(PipelineTest, PosteriorUncertaintyIsInformative)
{
    const auto u = uarch();
    const auto workload = wl::makeHibench(GetParam().workload);
    const sim::GroundTruthGenerator gen(u, workload);
    const auto truth = gen.generate(32, 77);

    const auto run = core::measure(u, truth,
                                   {u.idForRole(sim::Role::LlcMiss),
                                    u.idForRole(sim::Role::DramBytes),
                                    u.idForRole(sim::Role::DmaBytes),
                                    u.idForRole(sim::Role::L2Miss),
                                    u.idForRole(sim::Role::StallMem)});

    // Truth should fall within 4 posterior stddevs most of the time
    // (EP mean-field intervals are known to be somewhat narrow).
    const sim::EventId llc = u.idForRole(sim::Role::LlcMiss);
    const auto mean = run.estimate(llc);
    const auto sd = run.uncertainty(llc);
    std::size_t covered = 0;
    for (std::size_t t = 0; t < mean.size(); ++t)
        if (std::abs(mean[t] - truth.sliceTotal(t, llc)) <= 4.0 * sd[t])
            ++covered;
    EXPECT_GE(covered, mean.size() * 6 / 10)
        << GetParam().arch << "/" << GetParam().workload;
}

INSTANTIATE_TEST_SUITE_P(
    ArchWorkloadSweep, PipelineTest,
    ::testing::Values(Case{"x86", "KMeans"}, Case{"x86", "TeraSort"},
                      Case{"x86", "Scan"}, Case{"x86", "Identity"},
                      Case{"ppc64", "KMeans"}, Case{"ppc64", "PageRank"},
                      Case{"ppc64", "DFSIOE"}),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::string(info.param.arch) + "_" + info.param.workload;
    });

} // namespace
} // namespace bperf
