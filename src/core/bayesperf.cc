#include "core/bayesperf.h"

#include <algorithm>

#include "common/logging.h"

namespace bperf {
namespace core {

std::vector<sim::EventId>
resolveMonitoredSet(const sim::MicroarchDescriptor &uarch,
                    const std::vector<sim::EventId> &events)
{
    std::vector<sim::EventId> monitored;
    // Fixed counters are always on and anchor the factor graph.
    for (sim::EventId e : uarch.fixedEvents())
        monitored.push_back(e);
    sim::Pmu pmu(uarch);
    for (sim::EventId e : events) {
        if (std::find(monitored.begin(), monitored.end(), e) !=
            monitored.end())
            continue;
        if (!uarch.event(e).fixed && !pmu.validate({e}))
            bp_fatal("event not schedulable on any counter: "
                     << uarch.event(e).name);
        monitored.push_back(e);
    }
    return monitored;
}

BayesPerfRun
measure(const sim::MicroarchDescriptor &uarch, const sim::TruthTrace &truth,
        const std::vector<sim::EventId> &events,
        const BayesPerfConfig &config)
{
    const std::vector<sim::EventId> monitored =
        resolveMonitoredSet(uarch, events);

    BayesPerfRun run;
    run.schedule = OverlapScheduler(uarch, config.scheduler).build(monitored);
    sim::PerfSession session(uarch, config.perf);
    run.raw = session.run(truth, monitored, run.schedule.configs);
    run.posterior = infer(uarch, run.raw, config.inference);
    return run;
}

} // namespace core
} // namespace bperf
