#include "workloads.h"

#include <algorithm>

#include "baselines/linux_scaling.h"
#include "bench_util.h"
#include "core/bayesperf.h"
#include "service/record_stream.h"
#include "sim/ground_truth.h"
#include "sim/perf_session.h"
#include "workloads/hibench.h"

namespace pipebench {

using namespace bperf;

namespace {

/** Cap on the records generated for a run, over all sessions (80 MB);
 * a longer stream replays a session's generated slices cyclically,
 * shifted forward on the slice clock. */
constexpr std::size_t kMaxRecords = 2'000'000;

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

std::vector<WorkloadSpec>
allWorkloads(const sim::MicroarchDescriptor &uarch)
{
    using sim::Role;
    std::vector<WorkloadSpec> out;

    // The 13-event set of bench_service_throughput: 3 fixed + 10.
    WorkloadSpec fleet;
    fleet.name = "fleet_k6";
    fleet.sessions = 16;
    for (Role r : {Role::LlcMiss, Role::L2Miss, Role::L1DMiss, Role::Loads,
                   Role::Stores, Role::Branches, Role::BranchMisses,
                   Role::StallMem, Role::StallTotal, Role::DramBytes})
        fleet.events.push_back(uarch.idForRole(r));
    fleet.windowSlices = 6;
    fleet.pmiReads = 4;
    fleet.openLoop = true;
    fleet.sliceRate = 2800.0;
    fleet.poller = PollerMode::Light;
    out.push_back(fleet);

    WorkloadSpec wide;
    wide.name = "wide_window";
    wide.sessions = 4;
    wide.events = bench::evaluationEventSet(uarch);
    wide.windowSlices = 8;
    wide.pmiReads = 4;
    wide.openLoop = false;
    wide.poller = PollerMode::None;
    out.push_back(wide);

    WorkloadSpec storm;
    storm.name = "small_window_storm";
    storm.sessions = 64;
    storm.events = {uarch.idForRole(Role::LlcMiss)};
    storm.windowSlices = 3;
    storm.pmiReads = 64;
    storm.openLoop = true;
    storm.sliceRate = 4000.0;
    storm.poller = PollerMode::Continuous;
    out.push_back(storm);
    return out;
}

void
SessionInput::recordsOf(std::size_t s, std::vector<PerfRecord> &out) const
{
    const std::vector<PerfRecord> &src = slices[s % slices.size()];
    out.assign(src.begin(), src.end());
    for (PerfRecord &rec : out)
        rec.slice = static_cast<std::uint32_t>(s);
}

service::SessionConfig
sessionConfig(const WorkloadSpec &spec, std::size_t schedule_period)
{
    service::SessionConfig cfg;
    cfg.streaming.inference.windowSlices = spec.windowSlices;
    cfg.streaming.schedulePeriod = schedule_period;
    return cfg;
}

std::vector<SessionInput>
generateInputs(const sim::MicroarchDescriptor &uarch,
               const WorkloadSpec &spec, std::size_t slices_per_session,
               std::uint64_t seed)
{
    const std::vector<EventId> monitored =
        core::resolveMonitoredSet(uarch, spec.events);
    const std::size_t per_slice_bound =
        std::max<std::size_t>(1, monitored.size() * spec.pmiReads);
    const std::size_t cap = std::max<std::size_t>(
        4 * spec.windowSlices,
        kMaxRecords / (spec.sessions * per_slice_bound));
    const std::size_t generated = std::min(slices_per_session, cap);

    // A PMI read must cover at least one truth subtick, or the
    // simulated reads overlap and overcount: give a slice at least two
    // subticks per read, enough for a counter that runs half of it.
    sim::GeneratorConfig truth_cfg;
    truth_cfg.subticksPerSlice =
        std::max(truth_cfg.subticksPerSlice, 2 * spec.pmiReads);

    const auto &names = wl::hibenchNames();
    const baselines::LinuxEstimator linux_estimator;
    std::vector<SessionInput> inputs(spec.sessions);
    for (std::size_t j = 0; j < spec.sessions; ++j) {
        SessionInput &in = inputs[j];
        in.monitored = monitored;
        const sim::GroundTruthGenerator generator(
            uarch, wl::makeHibench(names[j % names.size()]), truth_cfg);
        const sim::TruthTrace truth =
            generator.generate(generated, mixSeed(seed, 2 * j));
        sim::PerfSessionConfig perf_cfg;
        perf_cfg.pmiWindowsPerSlice = spec.pmiReads;
        perf_cfg.seed = mixSeed(seed, 2 * j + 1);
        sim::PerfSession perf(uarch, perf_cfg);
        const sim::PerfResult run = perf.runRoundRobin(truth, monitored);
        in.schedulePeriod = run.schedule.size();

        in.slices.resize(generated);
        in.truth.assign(generated, std::vector<double>(monitored.size()));
        in.perfEstimate.assign(generated,
                               std::vector<double>(monitored.size()));
        for (std::size_t t = 0; t < generated; ++t)
            in.slices[t] = service::sliceRecords(run, t);
        for (std::size_t i = 0; i < monitored.size(); ++i) {
            const std::vector<double> est =
                linux_estimator.series(run, monitored[i]);
            for (std::size_t t = 0; t < generated; ++t) {
                in.truth[t][i] = truth.sliceTotal(t, monitored[i]);
                in.perfEstimate[t][i] = est[t];
            }
        }
    }
    return inputs;
}

} // namespace pipebench
