/** @file Tests for the window execution backends: host stamping, the
 * simulated FPGA EP-engine pool, and backend selection through the
 * monitoring service. */

#include <gtest/gtest.h>

#include <vector>

#include "accel/accel_backend.h"
#include "core/backend.h"
#include "core/inference.h"
#include "service/monitor_service.h"
#include "service/record_stream.h"
#include "sim/ground_truth.h"
#include "sim/perf_session.h"
#include "workloads/hibench.h"

namespace bperf {
namespace {

const sim::MicroarchDescriptor &
uarch()
{
    static const sim::MicroarchDescriptor u = sim::makeX86Skylake();
    return u;
}

std::vector<sim::EventId>
monitoredSet()
{
    std::vector<sim::EventId> events;
    for (sim::EventId e : uarch().fixedEvents())
        events.push_back(e);
    for (sim::Role r :
         {sim::Role::LlcMiss, sim::Role::L2Miss, sim::Role::L1DMiss,
          sim::Role::Loads, sim::Role::Stores, sim::Role::Branches,
          sim::Role::BranchMisses, sim::Role::StallMem})
        events.push_back(uarch().idForRole(r));
    return events;
}

sim::PerfResult
measuredRun(const std::vector<sim::EventId> &monitored,
            std::size_t num_slices, std::uint64_t seed)
{
    const sim::WorkloadProfile workload = wl::makeHibench("KMeans");
    const sim::GroundTruthGenerator generator(uarch(), workload);
    const sim::TruthTrace truth = generator.generate(num_slices, seed);
    sim::PerfSessionConfig cfg;
    cfg.seed = seed * 3 + 1;
    sim::PerfSession session(uarch(), cfg);
    return session.runRoundRobin(truth, monitored);
}

/** A representative window job (shape of a 13-event k=6 window). */
core::WindowJob
windowJob(std::size_t end_slice)
{
    core::WindowJob job;
    job.sessionKey = 1;
    job.endSlice = end_slice;
    job.windowSlices = 6;
    job.numVariables = 78;
    job.numSites = 60;
    job.numSweeps = 6;
    job.inputBytes = 2048;
    job.hostSeconds = 3e-3;
    return job;
}

TEST(HostBackend, StampsMeasuredTimeWithoutQueueing)
{
    core::HostBackend backend;
    EXPECT_EQ(backend.name(), "host");

    core::WindowJob job = windowJob(5);
    job.hostSeconds = 2.5e-3;
    const core::WindowExecution exec = backend.execute(job);
    EXPECT_DOUBLE_EQ(exec.modeledSeconds, 2.5e-3);
    EXPECT_DOUBLE_EQ(exec.serviceSeconds, 2.5e-3);
    EXPECT_DOUBLE_EQ(exec.queueWaitSeconds, 0.0);
    EXPECT_EQ(exec.engineId, 0u);

    backend.execute(job);
    const core::BackendStats stats = backend.stats();
    EXPECT_EQ(stats.windowsExecuted, 2u);
    EXPECT_DOUBLE_EQ(stats.modeledSeconds.mean(), 2.5e-3);
    EXPECT_DOUBLE_EQ(stats.queueWaitSeconds.max(), 0.0);

    backend.reset();
    EXPECT_EQ(backend.stats().windowsExecuted, 0u);
}

TEST(AccelBackend, ModeledLatencyMonotoneInQueueDepth)
{
    accel::AccelBackendConfig cfg;
    cfg.numEngines = 1;
    accel::AccelBackend backend(cfg);

    // A burst released at the same stream instant: each job waits for
    // every predecessor, so end-to-end latency strictly increases
    // with queue depth while service time stays put.
    double prev_modeled = -1.0;
    double service = 0.0;
    for (int depth = 0; depth < 6; ++depth) {
        const core::WindowExecution exec =
            backend.execute(windowJob(/*end_slice=*/10));
        // The queue-free service estimate matches what execute stamps.
        EXPECT_DOUBLE_EQ(exec.serviceSeconds,
                         backend.serviceSeconds(windowJob(10)));
        EXPECT_GT(exec.modeledSeconds, prev_modeled);
        EXPECT_NEAR(exec.queueWaitSeconds,
                    static_cast<double>(depth) * exec.serviceSeconds,
                    1e-12);
        prev_modeled = exec.modeledSeconds;
        service = exec.serviceSeconds;
    }
    EXPECT_GT(service, 0.0);

    // After a reset the queue is empty again.
    backend.reset();
    EXPECT_DOUBLE_EQ(backend.execute(windowJob(10)).queueWaitSeconds,
                     0.0);
}

TEST(AccelBackend, ModeledLatencyMonotoneInEngineCount)
{
    // The same 12-job burst on growing pools: total modeled latency
    // must not increase with engine count, and must strictly drop
    // going from a saturated 1-engine pool to 4 engines.
    std::vector<double> totals;
    for (std::size_t engines : {1u, 2u, 4u, 8u}) {
        accel::AccelBackendConfig cfg;
        cfg.numEngines = engines;
        accel::AccelBackend backend(cfg);
        double total = 0.0;
        for (int j = 0; j < 12; ++j)
            total += backend.execute(windowJob(10)).modeledSeconds;
        totals.push_back(total);
    }
    for (std::size_t i = 1; i < totals.size(); ++i)
        EXPECT_LE(totals[i], totals[i - 1]) << "engines step " << i;
    EXPECT_LT(totals[2], totals[0]);
}

TEST(AccelBackend, EnginePoolBalancesAndAccounts)
{
    accel::AccelBackendConfig cfg;
    cfg.numEngines = 3;
    accel::AccelBackend backend(cfg);
    for (int j = 0; j < 9; ++j)
        backend.execute(windowJob(10));

    const accel::AccelPoolStats pool = backend.poolStats();
    ASSERT_EQ(pool.engineJobs.size(), 3u);
    for (std::uint64_t jobs : pool.engineJobs)
        EXPECT_EQ(jobs, 3u); // identical jobs spread evenly
    EXPECT_GT(pool.makespanSeconds, 0.0);
    EXPECT_EQ(backend.stats().windowsExecuted, 9u);
}

TEST(AccelBackend, CapiBeatsPcieOnTheReadPath)
{
    accel::AccelBackendConfig cfg;
    cfg.engine.hostInterface = accel::HostInterface::Capi;
    accel::AccelBackend capi(cfg);
    cfg.engine.hostInterface = accel::HostInterface::PcieDma;
    accel::AccelBackend pcie(cfg);
    EXPECT_EQ(capi.name(), "accel-capi");
    EXPECT_EQ(pcie.name(), "accel-pcie");

    // Ingest side: snooping the ring lines is cheaper than a
    // doorbell'd DMA, so both the transfer share and the end-to-end
    // service time favour CAPI.
    const core::WindowExecution capi_exec = capi.execute(windowJob(0));
    const core::WindowExecution pcie_exec = pcie.execute(windowJob(0));
    EXPECT_LT(capi_exec.transferSeconds, pcie_exec.transferSeconds);
    EXPECT_LT(capi_exec.serviceSeconds, pcie_exec.serviceSeconds);

    // Poll side: the monitoring application's posterior read is also
    // cheaper against the coherent interface.
    EXPECT_LT(capi.engineModel().pollLatencyHostCycles(2.6, 3450),
              pcie.engineModel().pollLatencyHostCycles(2.6, 3450));
}

TEST(AccelBackend, PosteriorsIdenticalToHostPath)
{
    // The backend only models timing: an engine run with the accel
    // backend must produce bit-identical posteriors to the plain host
    // run, while stamping modeled executions for every window.
    const auto monitored = monitoredSet();
    const auto run = measuredRun(monitored, 24, 404);

    core::InferenceConfig host_cfg;
    host_cfg.windowSlices = 6;
    const core::InferenceResult host =
        core::infer(uarch(), run, host_cfg);

    accel::AccelBackend backend(accel::AccelBackendConfig{});
    core::InferenceConfig accel_cfg = host_cfg;
    accel_cfg.backend = &backend;
    const core::InferenceResult accel =
        core::infer(uarch(), run, accel_cfg);

    EXPECT_EQ(host.backendName, "host");
    EXPECT_EQ(accel.backendName, "accel-capi");
    EXPECT_EQ(accel.windowsRun, host.windowsRun);
    ASSERT_EQ(accel.series.size(), host.series.size());
    for (std::size_t i = 0; i < host.series.size(); ++i) {
        ASSERT_EQ(accel.series[i].size(), host.series[i].size());
        for (std::size_t t = 0; t < host.series[i].size(); ++t) {
            EXPECT_EQ(accel.series[i][t].mean, host.series[i][t].mean);
            EXPECT_EQ(accel.series[i][t].stddev,
                      host.series[i][t].stddev);
        }
    }

    ASSERT_EQ(accel.windowExecutions.size(), accel.windowsRun);
    for (const auto &exec : accel.windowExecutions) {
        EXPECT_GT(exec.serviceSeconds, 0.0);
        EXPECT_GE(exec.modeledSeconds, exec.serviceSeconds);
    }
    EXPECT_EQ(backend.stats().windowsExecuted, accel.windowsRun);
}

TEST(AccelBackend, ServiceSelectsAndSharesTheBackend)
{
    // Two daemons over the same record stream, host vs accel backend:
    // identical posteriors, different modeled latency accounting.
    const auto monitored = monitoredSet();
    const auto run = measuredRun(monitored, 24, 808);

    auto runDaemon = [&](service::BackendKind kind) {
        service::MonitorServiceConfig cfg;
        cfg.numWorkers = 2;
        cfg.backend = kind;
        cfg.accel.numEngines = 2;
        cfg.sessionDefaults.streaming.inference.windowSlices = 6;
        service::MonitorService daemon(uarch(), cfg);
        const service::SessionId id = daemon.open(monitored);
        daemon.ingestBatch(id, service::recordStream(run));
        auto report = daemon.close(id);
        EXPECT_TRUE(report.has_value());
        const service::ServiceStats stats = daemon.stats();
        EXPECT_EQ(stats.backend.windowsExecuted,
                  report->stats.windowsRun);
        return std::make_pair(std::move(*report), stats.backendName);
    };

    const auto [host_report, host_name] =
        runDaemon(service::BackendKind::Host);
    const auto [accel_report, accel_name] =
        runDaemon(service::BackendKind::Accel);
    EXPECT_EQ(host_name, "host");
    EXPECT_EQ(accel_name, "accel-capi");

    for (sim::EventId e : monitored) {
        const auto host_mean = host_report.posterior.meanSeries(e);
        const auto accel_mean = accel_report.posterior.meanSeries(e);
        ASSERT_EQ(accel_mean.size(), host_mean.size());
        for (std::size_t t = 0; t < host_mean.size(); ++t)
            EXPECT_EQ(accel_mean[t], host_mean[t]);
    }

    // The session's modeled-latency statistics cover every window.
    EXPECT_EQ(accel_report.stats.modeledWindowSeconds.count(),
              accel_report.stats.windowsRun);
    // On the host path modeled == measured, window for window.
    EXPECT_DOUBLE_EQ(host_report.stats.modeledWindowSeconds.mean(),
                     host_report.stats.windowSeconds.mean());
}

} // namespace
} // namespace bperf
